#!/usr/bin/env bash
# Documentation consistency gate (part of tools/check.sh):
#
#  1. every src/<subsystem> has a docs/internals page,
#  2. every --flag registered in bench/, tools/, src/util, src/runner is
#     documented in docs/MANUAL.md, and every flag row of the manual names
#     a registered flag,
#  3. every intra-repo markdown link in *.md resolves to a real file.
#
#   tools/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "check_docs: $1" >&2
  fail=1
}

# -- 1. one internals page per src subsystem ------------------------------
# src/core is the paper's policy layer and is documented as policy.md.
page_for() {
  case "$1" in
    core) echo policy ;;
    *) echo "$1" ;;
  esac
}
for dir in src/*/; do
  sub=$(basename "$dir")
  page="docs/internals/$(page_for "$sub").md"
  [[ -f "$page" ]] || err "src/$sub has no internals page ($page missing)"
done
# The fault model lives inside src/sim but is a documented subsystem of
# its own.
[[ -f docs/internals/fault.md ]] || err "docs/internals/fault.md missing"

# Every internals page must have a row in the internals README index --
# a page nobody can discover from the index might as well not exist.
for page in docs/internals/*.md; do
  name=$(basename "$page")
  [[ "$name" == "README.md" ]] && continue
  grep -q "($name)" docs/internals/README.md ||
    err "docs/internals/README.md has no index entry for $name"
done

# The architecture overview and the performance methodology page must
# exist and be reachable from the entry-point docs (their intra-repo
# links are checked with every other markdown file in step 3).
[[ -f docs/ARCHITECTURE.md ]] || err "docs/ARCHITECTURE.md missing"
grep -q "ARCHITECTURE.md" README.md ||
  err "README.md does not link docs/ARCHITECTURE.md"
grep -q "ARCHITECTURE.md" docs/MANUAL.md ||
  err "docs/MANUAL.md does not link ARCHITECTURE.md"
[[ -f docs/PERFORMANCE.md ]] || err "docs/PERFORMANCE.md missing"
grep -q "PERFORMANCE.md" README.md ||
  err "README.md does not link docs/PERFORMANCE.md"
grep -q "PERFORMANCE.md" docs/MANUAL.md ||
  err "docs/MANUAL.md does not link PERFORMANCE.md"

# The model catalogue must exist and be reachable from every entry-point
# doc -- it is the map from "what does a run simulate" to the page and
# knobs, so burying it defeats its purpose.
[[ -f docs/MODELS.md ]] || err "docs/MODELS.md missing"
grep -q "MODELS.md" README.md ||
  err "README.md does not link docs/MODELS.md"
grep -q "MODELS.md" docs/ARCHITECTURE.md ||
  err "docs/ARCHITECTURE.md does not link MODELS.md"
grep -q "MODELS.md" docs/MANUAL.md ||
  err "docs/MANUAL.md does not link MODELS.md"

# -- 2. every registered flag is documented in the manual -----------------
flags=$(grep -rhoE '"--[a-z0-9-]+"' bench tools src/util src/runner 2>/dev/null |
  tr -d '"' | sort -u)
for flag in $flags; do
  [[ "$flag" == "--help" ]] && continue  # synthesised by FlagParser
  grep -q -- "\`$flag" docs/MANUAL.md ||
    err "flag $flag is not documented in docs/MANUAL.md"
done

# The reverse: a table row whose first cell is a flag ("| `--flag...")
# must name one that some binary registers, so a retired flag's row goes
# with it.
for flag in $(grep -oE '^\| *`--[a-z0-9-]+' docs/MANUAL.md |
  sed 's/^| *`//' | sort -u); do
  grep -qx -- "$flag" <<<"$flags" ||
    err "docs/MANUAL.md documents $flag, which no binary registers"
done

# Belt and braces for the flash parallelism surface: every --flash-*
# flag the CLI registers must appear in the manual's edm_run table (the
# generic scan above finds string literals; this asserts the family is
# never renamed out from under the docs).
for flag in $(grep -rhoE '"--flash-[a-z0-9-]+"' tools 2>/dev/null |
  tr -d '"' | sort -u); do
  grep -q -- "\`$flag" docs/MANUAL.md ||
    err "flash flag $flag is not documented in docs/MANUAL.md"
done
[[ -n $(grep -rhoE '"--flash-[a-z0-9-]+"' tools 2>/dev/null) ]] ||
  err "no --flash-* flags registered in tools/ (expected --flash-geometry)"

# -- 3. intra-repo markdown links resolve ---------------------------------
while IFS= read -r md; do
  dir=$(dirname "$md")
  # extract link targets: [text](target)
  while IFS= read -r target; do
    # skip external links, pure anchors, and mail links
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target=${target%%#*}  # strip anchor
    [[ -z "$target" ]] && continue
    [[ -e "$dir/$target" ]] || err "$md links to missing file: $target"
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed 's/^](//; s/)$//')
done < <(find . -name '*.md' -not -path './build*' -not -path './.git/*')

if [[ $fail -ne 0 ]]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: all documentation checks passed"
