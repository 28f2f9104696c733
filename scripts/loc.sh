#!/usr/bin/env bash
# Lines of code per crate: the non-blank lines of each workspace package's `src/`,
# not counting test modules — the `#[cfg(test)] mod name { .. }` blocks in a file
# and the files of `#[cfg(test)] mod name;` declarations. Comments count.
#
#   scripts/loc.sh [REPO_ROOT]     # prints "<lines> <package>" per package, then the total
#
# A block ends at the first `}` line indented like its `mod` line, which holds for
# rustfmt-formatted code (CI checks the formatting).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for manifest in Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    lines=$(find "$dir/src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { pending = 0; held = 0; skip = 0 }
        skip { if ($0 == indent "}") skip = 0; next }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; held = 1; next }
        pending && /^[ \t]*#\[/ { held++; next }
        pending && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/ {
            pending = 0; skip = 1; match($0, /^[ \t]*/); indent = substr($0, 1, RLENGTH); next
        }
        pending && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;$/ {
            pending = 0
            mod = $0; sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", mod); sub(/;$/, "", mod)
            parent = FILENAME; sub(/\/[^\/]*$/, "", parent)
            stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") parent = parent "/" stem
            excluded[parent "/" mod ".rs"] = 1; excluded[parent "/" mod "/mod.rs"] = 1
            next
        }
        pending { pending = 0; count[FILENAME] += held }
        NF { count[FILENAME]++ }
        END {
            for (f in count) if (!(f in excluded)) sum += count[f]
            print sum + 0
        }')
    printf '%6d %s\n' "$lines" "$name"
    total=$((total + lines))
done
printf '%6d total\n' "$total"
