/*
 * A sampling profiler to preload into a command (scripts/profile.sh builds and
 * runs it; see there).
 *
 * Loaded, it arms a POSIX timer on CLOCK_MONOTONIC that sends SIGPROF to the
 * thread that loaded it -- the main thread -- every 50 us of wall-clock time,
 * and the handler stores the interrupted program counter. At exit it writes,
 * next to this library, `<pid>.pcs` (one `count pc` line per distinct program
 * counter, in hex) and `<pid>.maps` (a copy of /proc/self/maps, to map each
 * counter to a file and an offset).
 *
 * Only the main thread is sampled, so profile runs whose work is on it: the
 * one-shard engine, not a sharded run's worker threads. Wall-clock sampling
 * also counts the time the thread spends blocked.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_NS 50000L
/* 4 Mi samples: 200 s of one thread at 50 us, 32 MiB of address space that is
   only touched as samples arrive. */
#define MAX_SAMPLES (1UL << 22)

static uintptr_t samples[MAX_SAMPLES];
static atomic_ulong taken;
static timer_t timer;
static pid_t owner;

static void on_sigprof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    unsigned long i = atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
    if (i < MAX_SAMPLES) {
#if defined(__x86_64__)
        samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        samples[i] = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sampler.c reads the program counter on x86_64 and aarch64 only"
#endif
    }
}

__attribute__((constructor)) static void sampler_start(void)
{
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, NULL) != 0) {
        perror("sampler: sigaction");
        return;
    }
    struct sigevent event;
    memset(&event, 0, sizeof event);
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = SIGPROF;
    event._sigev_un._tid = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0) {
        perror("sampler: timer_create");
        return;
    }
    struct itimerspec period = {{0, PERIOD_NS}, {0, PERIOD_NS}};
    if (timer_settime(timer, 0, &period, NULL) != 0) {
        perror("sampler: timer_settime");
        timer_delete(timer);
        return;
    }
    owner = getpid();
}

static int by_address(const void *a, const void *b)
{
    uintptr_t x = *(const uintptr_t *)a, y = *(const uintptr_t *)b;
    return (x > y) - (x < y);
}

/* `dir/<pid>.<ext>` opened for writing, or NULL. */
static FILE *output(const char *dir, const char *ext)
{
    char path[4096];
    snprintf(path, sizeof path, "%s/%d.%s", dir, (int)owner, ext);
    FILE *f = fopen(path, "w");
    if (!f)
        perror(path);
    return f;
}

__attribute__((destructor)) static void sampler_stop(void)
{
    /* Not armed, or a forked child that inherited the parent's samples. */
    if (owner == 0 || owner != getpid())
        return;
    timer_delete(timer);
    unsigned long n = atomic_load(&taken);
    if (n > MAX_SAMPLES) {
        fprintf(stderr, "sampler: kept the first %lu of %lu samples\n", MAX_SAMPLES, n);
        n = MAX_SAMPLES;
    }

    Dl_info self;
    if (!dladdr((void *)sampler_stop, &self) || !self.dli_fname)
        return;
    char dir[4096];
    snprintf(dir, sizeof dir, "%s", self.dli_fname);
    char *slash = strrchr(dir, '/');
    if (slash)
        *slash = '\0';
    else
        snprintf(dir, sizeof dir, ".");

    qsort(samples, n, sizeof samples[0], by_address);
    FILE *pcs = output(dir, "pcs");
    if (!pcs)
        return;
    for (unsigned long i = 0, j; i < n; i = j) {
        for (j = i; j < n && samples[j] == samples[i]; j++)
            ;
        fprintf(pcs, "%lu %lx\n", j - i, (unsigned long)samples[i]);
    }
    fclose(pcs);

    FILE *maps = fopen("/proc/self/maps", "r");
    FILE *copy = output(dir, "maps");
    if (maps && copy) {
        char buf[4096];
        size_t got;
        while ((got = fread(buf, 1, sizeof buf, maps)) > 0)
            fwrite(buf, 1, got, copy);
    }
    if (maps)
        fclose(maps);
    if (copy)
        fclose(copy);
}
