#!/usr/bin/env bash
# Where a command's time goes: a sampling profile, by layer and by function.
#
#   scripts/profile.sh CMD [ARG...]
#
# For example, the one-shard engine on the benchmark's burst workload:
#
#   scripts/profile.sh target/release/examples/perf --workload fattree_burst \
#       --seed 1 --seconds 20 --trace 0
#
# 1. Builds the workspace's release binaries and examples with line tables
#    (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only), so that addr2line can name
#    inlined functions. A later plain `cargo build --release` rebuilds them.
# 2. Compiles scripts/profile/sampler.c into a temporary directory and runs CMD
#    with it preloaded: every 50 us of wall-clock time it records where the main
#    thread is (see sampler.c): the whole engine of a one-shard run, shard 0 of a
#    sharded one. Give CMD as the binary itself, not `cargo run`, which would be
#    sampled too.
# 3. Folds the samples of the process that took the most: addr2line -i -f -C maps
#    each program counter to its chain of inlined frames. A sample belongs to the
#    innermost frame in this repository's sources: its function, and its layer,
#    the source file as `crate::module` (crates/netsim/src/event.rs is
#    netsim::event). A sample with no frame here is `std` (Rust's standard library,
#    such as a sort it did not inline) or the shared library it fell in (libc.so.6).
#    There is no call stack: time in a function counts where its code is, not to
#    its caller.
# 4. Folds the same samples by line: the innermost `file:line` in this repository's
#    sources (relative to its root), or for a sample with no frame here the
#    innermost line of Rust's standard library or the shared library it fell in. A
#    function that inlines a std call (`Option::as_mut` on a cold slot) shows the
#    line that made the call.
#
# Needs gcc and binutils (addr2line, readelf). Prints every layer, then the top 25
# functions and the 20 hottest lines, with their share of the samples.
set -euo pipefail
[ $# -ge 1 ] || { sed -n '2,34p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --quiet --manifest-path "$root/Cargo.toml" --workspace --bins --examples

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
gcc -O2 -Wall -Wextra -Werror -shared -fPIC -o "$work/libsampler.so" "$root/scripts/profile/sampler.c"
LD_PRELOAD="$work/libsampler.so" "$@"

# The process with the most samples.
best=
best_n=0
for pcs in "$work"/*.pcs; do
    [ -e "$pcs" ] || continue
    n=$(awk '{ n += $1 } END { print n + 0 }' "$pcs")
    if [ "$n" -gt "$best_n" ]; then best=${pcs%.pcs}; best_n=$n; fi
done
[ -n "$best" ] || { echo "profile: no samples were written" >&2; exit 1; }

# Hex in and out of awk (mawk has no strtonum): addresses below 2^53 are exact.
hexlib='
    function hex(s,    i, n) {
        s = tolower(s); sub(/^0x/, "", s)
        for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n + 0
    }
    function tohex(n,    s, d) {
        do { d = n % 16; s = substr("0123456789abcdef", d + 1, 1) s; n = (n - d) / 16 } while (n > 0)
        return s
    }'

# Each distinct program counter as `count file file-offset` (`count - -` if unmapped).
awk "$hexlib"'
    FNR == NR {
        if ($2 ~ /x/) { n++; split($1, range, "-"); lo[n] = hex(range[1]); hi[n] = hex(range[2])
                        off[n] = hex($3); file[n] = $6 }
        next
    }
    {
        pc = hex($2)
        for (i = 1; i <= n; i++) if (lo[i] <= pc && pc < hi[i]) break
        if (i > n || file[i] == "") print $1, "-", "-"
        else print $1, file[i], pc - lo[i] + off[i]
    }
' "$best.maps" "$best.pcs" > "$work/offsets"

# Per mapped file: each offset's virtual address (through the PT_LOAD segment that
# holds it, as `file offset address`), and addr2line's frames for each address (as
# `file address text`, innermost first).
: > "$work/addresses"
: > "$work/frames"
for f in $(awk '$2 != "-" { print $2 }' "$work/offsets" | sort -u); do
    [ -r "$f" ] || continue
    readelf -lW "$f" | awk '$1 == "LOAD" { print $2, $3, $5 }' |
        awk "$hexlib"'
            FNR == NR { n++; so[n] = hex($1); sv[n] = hex($2); sz[n] = hex($3); next }
            $2 == f && !seen[$3]++ {
                for (i = 1; i <= n; i++) if (so[i] <= $3 && $3 < so[i] + sz[i]) break
                if (i <= n) print f, $3, tohex(sv[i] + $3 - so[i])
            }
        ' f="$f" - "$work/offsets" > "$work/file-addresses"
    cat "$work/file-addresses" >> "$work/addresses"
    awk '{ print "0x" $3 }' "$work/file-addresses" | addr2line -a -i -f -C -p -e "$f" |
        awk -v f="$f" '/^0x/ { a = $1; sub(/:$/, "", a); sub(/^0x0*/, "", a); if (a == "") a = "0" }
                       { print f, a, $0 }' >> "$work/frames"
done

# Attribute every sample, then print the layers and the top functions.
awk -v root="$root/" '
    function module(path) {
        sub(/^(crates|examples)\//, "", path); sub(/\/src\//, "/", path); sub(/\.rs$/, "", path)
        gsub(/\//, "::", path); return path
    }
    FILENAME ~ /addresses$/ { address[$1 " " $2] = $3; next }
    # `crate::module` of a function path in a crate of this repository, or "".
    function named(fn,    seg) {
        sub(/^</, "", fn)
        if (split(fn, seg, "::") < 3 || seg[1] !~ /^(pdq|pdq_[a-z]+|perf)$/) return ""
        sub(/^pdq_/, "", seg[1]); return seg[1] "::" seg[2]
    }
    # A frame is `function at file:line`, innermost first; each location lies in the
    # function named beside it. Without inlining detail the innermost name falls back
    # to the enclosing symbol, so a frame is ours by its file or by its
    # name.
    FILENAME ~ /frames$/ {
        key = $1 " " $2
        text = $0; sub(/^[^ ]+ [^ ]+ /, "", text)
        sub(/^0x[0-9a-f]+: /, "", text); sub(/^ *\(inlined by\) /, "", text)
        sub(/ \(discriminator [0-9]+\)$/, "", text)
        fn = text; sub(/ at [^ ]*$/, "", fn)
        loc = text; sub(/^.* at /, "", loc)
        src = loc; sub(/:[0-9?]*$/, "", src)
        # No line table (a shared library without debug info): the name is only the
        # nearest exported symbol, so the sample goes to the library.
        if (!(key in innermost)) {
            innermost[key] = src ~ /^\?\?/ ? "" : fn; std[key] = src ~ /\/rustc\//
            stdline[key] = loc; sub(/^\/rustc\/[^\/]*\//, "", stdline[key])
        }
        if (key in ours) next
        if (index(src, root) == 1) layer[key] = module(substr(src, length(root) + 1))
        else if (named(fn) != "") layer[key] = named(fn)
        else next
        ours[key] = fn " (" layer[key] ")"
        line[key] = loc; sub(/^\/rustc\/[^\/]*\//, "", line[key])
        if (index(loc, root) == 1) line[key] = substr(loc, length(root) + 1)
        next
    }
    {
        if ($2 == "-") { L = "[unmapped]"; F = L; W = L }
        else {
            key = $2 " " address[$2 " " $3]
            lib = $2; sub(/.*\//, "", lib)
            if (key in ours) { L = layer[key]; F = ours[key]; W = line[key] }
            else if (std[key]) { L = "std"; F = innermost[key]; W = stdline[key] }
            else { L = lib; F = innermost[key] != "" ? innermost[key] : lib; W = F }
        }
        layers[L] += $1; functions[F] += $1; lines[W] += $1
    }
    END {
        for (L in layers) print layers[L] "\t" L > (dir "/layers")
        for (F in functions) print functions[F] "\t" F > (dir "/functions")
        for (W in lines) print lines[W] "\t" W > (dir "/lines")
    }
' dir="$work" "$work/addresses" "$work/frames" "$work/offsets"

share() { sort -t "$(printf '\t')" -k1,1nr | head -n "$1" |
          awk -F '\t' -v total="$best_n" '{ printf "%5.1f%% %8d  %s\n", 100 * $1 / total, $1, $2 }'; }
printf '%d samples (%.2f s of wall-clock time at 50 us) of %s\n\n' "$best_n" \
    "$(awk -v n="$best_n" 'BEGIN { print n * 5e-5 }')" "$(awk 'NR == 1 { print $6 }' "$best.maps")"
printf '%6s %8s  %s\n' share samples layer
share 1000000 < "$work/layers"
printf '\n%6s %8s  %s\n' share samples function
share 25 < "$work/functions"
printf '\n%6s %8s  %s\n' share samples line
share 20 < "$work/lines"
