#!/usr/bin/env bash
# Documentation drift guard: every `--flag` mentioned in docs/*.md
# must appear in the --help output of a shipped binary, every figure a
# documented `./build/bench_paper` command names must be one that
# `bench_paper --help` lists, and every backticked repo path
# (`src/...`, `tests/...`, `scripts/...`, a `:line` suffix dropped, a
# `{a,b}` group expanded) must name a file or directory. A flag,
# figure or file that was renamed (or removed) without a doc sweep,
# or documented before it exists, fails here with the doc lines that
# reference it.
#
# Usage: scripts/check_doc_flags.sh [BUILD_DIR]   (default: build)

set -u
build="${1:-build}"

for tool in c3d-sweep c3d-trace example_design_shootout bench_paper; do
    if [ ! -x "$build/$tool" ]; then
        echo "check_doc_flags: missing $build/$tool (build first)" >&2
        exit 2
    fi
done

help=$(
    "$build/c3d-sweep" --help 2>&1
    "$build/c3d-trace" --help 2>&1
    "$build/example_design_shootout" --help 2>&1
    "$build/bench_paper" --help 2>&1
)

status=0
for flag in $(grep -rhoE -- '--[a-z][a-z0-9-]+' docs/*.md | sort -u); do
    if ! printf '%s\n' "$help" | grep -qF -- "$flag"; then
        echo "doc drift: $flag is documented but absent from every" \
             "tool's --help" >&2
        grep -rn -- "$flag" docs/*.md | head -3 >&2
        status=1
    fi
done

# The figure names are the line after bench_paper's "FIGURE" heading.
figures=" $("$build/bench_paper" --help | sed -n '/^FIGURE/{n;p;}') "
for name in $(grep -rhoE -- '\./build/bench_paper( +[-a-z0-9=]+)*' docs/*.md |
              tr ' ' '\n' | grep -vE -- '^(\./build/bench_paper|--.*)$' |
              sort -u); do
    if ! printf '%s' "$figures" | grep -qF -- " $name "; then
        echo "doc drift: bench_paper has no figure '$name'" >&2
        grep -rn -- "bench_paper.* $name" docs/*.md | head -3 >&2
        status=1
    fi
done

for ref in $(grep -rhoE -- '`(src|tests|scripts)/[^` ]*`' docs/*.md |
             tr -d '`' | sed -E 's/:[0-9][0-9,-]*$//' | sort -u); do
    paths=$ref
    if [[ $ref =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
        paths=
        IFS=, read -ra alts <<< "${BASH_REMATCH[2]}"
        for alt in "${alts[@]}"; do
            paths="$paths ${BASH_REMATCH[1]}$alt${BASH_REMATCH[3]}"
        done
    fi
    for path in $paths; do
        if [ ! -e "$path" ]; then
            echo "doc drift: $path is documented but names no file" >&2
            grep -rnF -- "$ref" docs/*.md | head -3 >&2
            status=1
        fi
    done
done

if [ "$status" -eq 0 ]; then
    echo "check_doc_flags: all documented flags, figures and files exist"
fi
exit $status
