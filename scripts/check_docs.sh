#!/bin/sh
# check_docs: documentation drift gate (make check-docs).
#
# Fails when the docs and the binaries disagree:
#   1. a doc references a path outside the repo (/root/related/ came
#      from the original working notes and does not exist in a
#      checkout) — SNIPPETS.md and ISSUE.md quote external material,
#      CHANGES.md quotes past work verbatim; all three are exempt;
#   2. OPERATIONS.md misses a flag that imtd -h or imtgw -h prints,
#      or documents a flag no serving binary defines;
#   3. README.md / DESIGN.md / EXPERIMENTS.md / OPERATIONS.md mention
#      a backticked `-flag` that no cmd/* binary defines;
#   4. a required doc section or cross-link is missing, an API error
#      code (apitypes Code*) has no row in OPERATIONS.md's status
#      table, or OPERATIONS.md does not name the runner cache schema
#      version (cacheVersion) it carries an upgrade note for;
#   5. a "METHOD /v1/..." route pattern registered in non-test
#      internal/serve code appears verbatim in neither OPERATIONS.md
#      nor DESIGN.md (a route that only shows up as the prefix of a
#      longer one — `GET /v1/jobs` inside `GET /v1/jobs/{id}` — does
#      not count).
#   6. a route label passed as ObserveLatency(..., "<label>") in
#      non-test internal/serve code does not appear as "<label>" in
#      OPERATIONS.md, so every *_request_seconds series is documented.
#   7. a series name passed to a registry Counter/Gauge/Histogram/
#      HistogramVec call in non-test internal/serve/..., internal/runner
#      or internal/tracestore code does not appear in OPERATIONS.md, so
#      the metrics reference lists every series the daemons export.
set -eu
cd "$(dirname "$0")/.."

fail=0
err() { echo "check-docs: FAIL: $*" >&2; fail=1; }
tick=$(printf '\140') # backtick, kept out of shell quoting trouble

# ---- 1. out-of-repo path references ---------------------------------
if grep -rn "/root/related" --include='*.md' . \
        | grep -v '^\./SNIPPETS\.md:' | grep -v '^\./ISSUE\.md:' \
        | grep -v '^\./CHANGES\.md:'; then
    err "docs reference /root/related/ paths that do not exist in a checkout"
fi

# ---- flag extraction helpers ----------------------------------------
# Flags a binary defines: flag.String("name", ...) etc., one per line.
flags_of() {
    grep -hoE 'flag\.(String|Bool|Int|Int64|Uint64|Duration|Float64|Func)\("[a-z][a-z0-9-]*"' "$@" \
        | sed -E 's/.*\("([^"]*)"$/\1/' | sort -u
}
# Backticked `-flag` tokens a doc mentions, one per line (bare names).
doc_flags() {
    grep -hoE "${tick}-[a-z][a-z0-9-]*${tick}" "$@" 2>/dev/null \
        | sed -E "s/^${tick}-//; s/${tick}\$//" | sort -u
}

# ---- 2. OPERATIONS.md covers the serving binaries exactly -----------
for bin in imtd imtgw; do
    for f in $(flags_of "cmd/$bin/main.go"); do
        grep -q -- "${tick}-$f${tick}" OPERATIONS.md \
            || err "OPERATIONS.md does not document $bin flag -$f"
    done
done
serving_flags=$(flags_of cmd/imtd/main.go cmd/imtgw/main.go cmd/imtload/main.go)
for f in $(doc_flags OPERATIONS.md); do
    echo "$serving_flags" | grep -Fxq "$f" \
        || err "OPERATIONS.md documents -$f, which no serving binary defines"
done

# ---- 3. no doc mentions a flag no binary defines --------------------
# Union of every cmd/* flag and test-file flag (e.g. conformance
# -update), plus standard go-test flags docs may cite.
all_flags=$(flags_of cmd/*/main.go internal/*/*_test.go; printf 'h\nbench\nbenchmem\nrace\nrun\nfuzz\nfuzztime\n')
for f in $(doc_flags README.md DESIGN.md EXPERIMENTS.md OPERATIONS.md); do
    echo "$all_flags" | grep -Fxq "$f" \
        || err "docs mention -$f, which no cmd/* binary defines"
done

# ---- 4. required sections and cross-links ---------------------------
grep -q 'OPERATIONS.md' README.md    || err "README.md does not link OPERATIONS.md"
grep -q '^## Cluster' DESIGN.md      || err "DESIGN.md is missing the Cluster section"
grep -q 'Reproduce at scale' EXPERIMENTS.md \
    || err "EXPERIMENTS.md is missing the 'Reproduce at scale' section"
grep -q 'cluster-smoke' README.md    || err "README.md does not mention make cluster-smoke"
grep -q 'traces-smoke' README.md     || err "README.md does not mention make traces-smoke"
grep -q '^## Trace store' OPERATIONS.md \
    || err "OPERATIONS.md is missing the Trace store section"
# Every closed error code (a Code* constant in apitypes) needs its own
# row in OPERATIONS.md's status table: | <status> | `<code>` | ...
codes=$(sed -nE 's/^[[:space:]]*Code[A-Za-z]+[[:space:]]*=[[:space:]]*"([a-z_]+)".*/\1/p' internal/serve/apitypes/error.go)
[ -n "$codes" ] || err "no Code* constants found in internal/serve/apitypes/error.go"
for code in $codes; do
    grep -qE "^\| [0-9]{3} \| ${tick}${code}${tick} \|" OPERATIONS.md \
        || err "OPERATIONS.md status table has no row for error code $code"
done
# The runner cache schema version must appear in OPERATIONS.md as
# "cache schema vN", so a key change cannot ship without its upgrade
# note.
cache_version=$(sed -nE 's/^const cacheVersion = ([0-9]+).*/\1/p' internal/runner/cache.go)
if [ -z "$cache_version" ]; then
    err "no cacheVersion constant found in internal/runner/cache.go"
elif ! grep -qE "cache schema v${cache_version}([^0-9]|\$)" OPERATIONS.md; then
    err "OPERATIONS.md does not name cache schema v$cache_version (add an upgrade note)"
fi
for series in serve_requests_total serve_jobs_submitted_total \
              serve_room_frames_total serve_gw_rerouted_total \
              serve_gw_trace_pushes_total tracestore_puts_total; do
    grep -q "$series" OPERATIONS.md \
        || err "OPERATIONS.md metrics reference is missing $series"
done

# ---- 5. every registered route is documented ------------------------
routes=$(find internal/serve -name '*.go' ! -name '*_test.go' \
        -exec grep -hoE '"(GET|POST|PUT|PATCH|DELETE) /v1/[^"]*"' {} + | tr -d '"' | sort -u)
[ -n "$routes" ] || err "no /v1 route patterns found in internal/serve"
while IFS= read -r route; do
    [ -n "$route" ] || continue
    re=$(printf '%s' "$route" | sed 's/[{}]/\\&/g')
    grep -qE -- "${re}([^/{A-Za-z0-9_-]|\$)" OPERATIONS.md DESIGN.md \
        || err "route '$route' is registered in internal/serve but documented in neither OPERATIONS.md nor DESIGN.md"
done <<ROUTES
$routes
ROUTES

# ---- 6. every timed route label is documented ----------------------
labels=$(find internal/serve -name '*.go' ! -name '*_test.go' \
        -exec grep -hoE 'ObserveLatency\([^"]*"[a-z_]+"' {} + \
        | sed -E 's/.*"([a-z_]+)"$/\1/' | sort -u)
[ -n "$labels" ] || err "no ObserveLatency route labels found in internal/serve"
for label in $labels; do
    grep -qF "\"$label\"" OPERATIONS.md \
        || err "route label \"$label\" is timed in internal/serve but OPERATIONS.md never names it"
done

# ---- 7. every exported metric series is documented -----------------
# Trace-recorder counters (obs.Trace.Counter) are spans, not series.
series=$(find internal/serve internal/runner internal/tracestore -name '*.go' ! -name '*_test.go' \
        -exec grep -hoE '[A-Za-z_]+\.(Counter|Gauge|Histogram|HistogramVec)\("[a-z][a-z0-9_]*"' {} + \
        | grep -v '^Trace\.' | sed -E 's/.*\("([a-z0-9_]+)"$/\1/' | sort -u)
[ -n "$series" ] || err "no metric series registered in internal/serve, internal/runner or internal/tracestore"
for s in $series; do
    grep -qF "${tick}$s${tick}" OPERATIONS.md \
        || err "metric series $s is registered but OPERATIONS.md's metrics reference never names it"
done

[ "$fail" = 0 ] && echo "check-docs: PASS"
exit "$fail"
