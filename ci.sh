#!/usr/bin/env bash
# CI gate for the Sync-Switch workspace, split into named stages so the
# hosted workflow (.github/workflows/ci.yml) gets per-stage failure
# attribution. Keep it green locally before pushing.
#
#   ./ci.sh                   # every stage in order
#   ./ci.sh --fast            # debug-profile stages only (fmt, test,
#                             # transport, workloads, chaos, clippy,
#                             # examples) — skips everything that would
#                             # trigger a release-profile build,
#                             # including the multi-process cluster stage
#   ./ci.sh --stage <name>    # run one stage (repeatable)
#   ./ci.sh --list            # print stage names
#   ./ci.sh --loc             # non-test line counts per source file (the
#                             # one counter CHANGES.md entries quote); runs
#                             # no stage
#   ./ci.sh --loc <rev>       # the same count, <rev> → working tree, as a
#                             # Markdown table for CHANGES.md
#   ./ci.sh --pairs <rev> [--workload W]... [--n 10] [--seed 1]
#                             # the benchmark at <rev> against the working
#                             # tree in alternating pairs: the verdict table
#                             # for CHANGES.md, one BENCH_history.jsonl row
#                             # per side and workload; runs no stage
#
# A run without --stage first checks that the hosted workflow's steps still
# mirror STAGES. On any stage failure the EXIT trap collects diagnostics
# (cluster child logs, golden exhibits, tree diff) into ci-artifacts/, which
# the hosted workflow uploads.
set -euo pipefail
cd "$(dirname "$0")"

STAGES=(fmt build test transport workloads chaos clippy benchmark-smoke exhibits examples cluster)
# Stages skipped by --fast: each of these compiles the release profile,
# which dwarfs the debug stages' wall time.
RELEASE_STAGES=(build benchmark-smoke exhibits cluster)

step() { printf '\n==> %s\n' "$*"; }

# Matches the cluster binaries spawned out of this repo's target dir (and
# nothing else — not this script, not cargo).
CLUSTER_PROC_RE='target/(debug|release)/ps-(serve|worker)'

# PID ledger for cluster children: the ClusterHarness appends every child
# PID it spawns when PS_CLUSTER_PID_FILE is set. Cleanup below is scoped to
# these PIDs — a pattern `pkill` would also hit cluster processes belonging
# to a concurrent run in another checkout of this repo.
CLUSTER_PID_FILE="target/tmp/ci-cluster.$$.pids"
mkdir -p "$(dirname "$CLUSTER_PID_FILE")"
rm -f "$CLUSTER_PID_FILE"
export PS_CLUSTER_PID_FILE="$PWD/$CLUSTER_PID_FILE"

# Ledger PIDs that are still alive and still one of this repo's cluster
# binaries — the /proc cmdline check guards against PID reuse by an
# unrelated process after a child exited. Always exits 0: an exited child
# (the normal case) is simply not listed, and under `set -e` a nonzero
# return here would abort the caller's command substitution. The stderr
# redirect precedes the input redirect so bash's own "No such file" open
# error for a reaped PID is silenced too.
live_cluster_pids() {
    [[ -f "$CLUSTER_PID_FILE" ]] || return 0
    local pid cmd
    while IFS= read -r pid; do
        [[ "$pid" =~ ^[0-9]+$ ]] || continue
        cmd="$(tr '\0' ' ' 2>/dev/null < "/proc/$pid/cmdline" || true)"
        if [[ "$cmd" =~ $CLUSTER_PROC_RE ]]; then
            printf '%s\n' "$pid"
        fi
    done < "$CLUSTER_PID_FILE"
    return 0
}

# ---- failure artifacts ----------------------------------------------------

CURRENT_STAGE=""

# Collects whatever a post-mortem needs into ci-artifacts/ (uploaded by the
# hosted workflow on failure): the failed stage name, every cluster child
# log/spec/report under target/tmp, the golden exhibits, and any tree drift
# a stage left behind.
collect_artifacts() {
    local stage="$1" dest="ci-artifacts"
    rm -rf "$dest"
    mkdir -p "$dest"
    {
        echo "failed stage: $stage"
        echo "commit: $(git rev-parse HEAD 2>/dev/null || echo unknown)"
        date -u +"when: %Y-%m-%dT%H:%M:%SZ"
    } > "$dest/FAILURE.txt"
    # Cluster harness run dirs: per-child logs, spec, worker reports and
    # the ps-worker Chrome traces (*.trace.json).
    if [[ -d target/tmp ]]; then
        while IFS= read -r f; do
            local rel="${f#target/tmp/}"
            mkdir -p "$dest/cluster/$(dirname "$rel")"
            cp "$f" "$dest/cluster/$rel"
        done < <(find target/tmp -type f \( -name '*.log' -o -name '*.json' \) 2>/dev/null)
    fi
    # Golden exhibits plus any drift a stage left in the working tree
    # (e.g. a golden refresh someone forgot to commit).
    cp -r goldens "$dest/goldens" 2>/dev/null || true
    git status --short > "$dest/git-status.txt" 2>/dev/null || true
    git diff > "$dest/git-diff.patch" 2>/dev/null || true
    echo "collected failure artifacts into $dest/" >&2
}

on_exit() {
    local code=$?
    # Reap any cluster child that outlived its harness — a leaked ps-serve
    # squats on its spec port and poisons the next run. Only PIDs this
    # run's harnesses recorded in the ledger are touched.
    local pid
    while IFS= read -r pid; do
        kill -9 "$pid" 2>/dev/null || true
    done < <(live_cluster_pids)
    rm -f "$CLUSTER_PID_FILE"
    if [[ $code -ne 0 && -n "$CURRENT_STAGE" ]]; then
        collect_artifacts "$CURRENT_STAGE"
    fi
}
trap on_exit EXIT

# ---- stages ---------------------------------------------------------------

# Runs "$@" — a command that builds the benchmark package — and then puts
# back the `benchmark/Cargo.lock` it found, whatever the command did or
# returned. The committed lock is one line short (`serde` under
# `sync-switch-ps`, ROADMAP item 2), so every benchmark build rewrites it,
# and a gate run must leave the tree as it found it.
keeping_benchmark_lock() {
    local saved status=0
    saved="$(mktemp)"
    cp benchmark/Cargo.lock "$saved"
    "$@" || status=$?
    cp "$saved" benchmark/Cargo.lock
    rm -f "$saved"
    return "$status"
}

# cargo fmt --check: formatting drift fails fast, before any compilation.
stage_fmt() {
    cargo fmt --all --check
}

# Tier-1, part 1: the release build every bench/exhibit stage reuses. Then
# the store/router/wire equivalence proptests once in that profile — the one
# the benchmark measures: the touched-block walk is index arithmetic, and
# its overflow checks and `debug_assert!`s exist only in the `test` stage's
# debug build.
stage_build() {
    cargo build --release
    timeout -sKILL 300 cargo test --release -q -p sync-switch-ps --test proptests
}

# Tier-1, part 2: every workspace suite that no later stage runs. The
# `sync-switch-ps` integration binaries `transport`, `workloads` and `chaos`
# have stages of their own, and so do the lib's `transport::` unit tests
# (the `transport` stage); here run the rest of that crate — its lib, doc
# tests, `proptests` (debug, for the `debug_assert!`s) and `remote`. Hard
# KILL timeout like the other test stages: the unit suites exercise the
# round gate every segment's workers share (the BSP barrier and the SSP
# leash wait on it, every protocol aborts through it), where a lost wake-up
# is a hang, and a hang must fail the gate, not wedge it. Built first so
# compilation does not eat the run budget. The benchmark package (a
# workspace of its own, so `--workspace` never sees it) is type-checked
# here too: it is written against `WorkerPort`, `wire::*` and `Network`,
# and otherwise only the release-profile `benchmark-smoke` stage — which
# `--fast` skips — would notice a change that stops it compiling.
stage_test() {
    keeping_benchmark_lock cargo check -q --offline --manifest-path benchmark/Cargo.toml
    cargo test -q --workspace --no-run
    timeout -sKILL 600 bash -c '
        cargo test -q --workspace --exclude sync-switch-ps &&
        cargo test -q -p sync-switch-ps --lib --test proptests --test remote \
            -- --skip transport:: &&
        cargo test -q -p sync-switch-ps --doc' || {
        echo "workspace tests failed or timed out (600s budget)" >&2
        return 1
    }
}

# Transport-tier smoke: the wire-protocol integration tests (channel + TCP
# loopback, BSP ≡ sequential SGD, sparse pushes and pulls against their
# dense twins at the wire) under a hard timeout, so a hung socket
# or a lost wakeup in a serving loop fails the gate fast instead of
# wedging it. Build first without the timeout — compilation time must not
# eat the test budget.
stage_transport() {
    cargo test -q -p sync-switch-ps --test transport --no-run
    cargo test -q -p sync-switch-ps --lib --no-run
    # timeout signals the whole process group (cargo + the test binary);
    # TERM first for clean output, KILL 10s later if a socket is wedged.
    timeout -k 10 120 \
        cargo test -q -p sync-switch-ps --test transport || {
        echo "transport tests failed or timed out (120s budget)" >&2
        return 1
    }
    # The transport tier's unit tests too (endpoint, codec, both backends,
    # the router's prefetch invalidation): a pull served from an image that
    # should have been dropped shows as a wrong view, but one that waits on
    # a reply nobody sends hangs — here, not in the 600 s `test` stage.
    timeout -k 10 120 \
        cargo test -q -p sync-switch-ps --lib transport:: || {
        echo "transport unit tests failed or timed out (120s budget)" >&2
        return 1
    }
}

# Workload-breadth convergence harness: every registered trainable workload
# (MLP, conv, sparse embedding) trains under BSP, ASP, SSP(2), and a
# BSP→ASP switch on the real PS tier, gated on per-workload loss
# thresholds. Hard KILL timeout: a convergence stall must fail the gate,
# not wedge it. Built first so compilation does not eat the run budget.
stage_workloads() {
    cargo test -q -p sync-switch-ps --test workloads --no-run
    timeout -sKILL 180 \
        cargo test -q -p sync-switch-ps --test workloads || {
        echo "workload convergence harness failed or timed out (180s budget)" >&2
        return 1
    }
}

# Chaos suite: every trainable workload under BSP and ASP on a TCP tier
# with seeded fault injection (dropped replies, stragglers) plus a mid-run
# server kill and respawn, found by the router's handshake and restored
# from the trainer's checkpoint, and the hot-lr divergence specimen absorbed by the
# controller's rollback rule. Hard KILL timeout: a wedged retry loop or a
# dead server that never heals must fail the gate, not hang it. Built
# first so compilation does not eat the run budget.
stage_chaos() {
    cargo test -q -p sync-switch-ps --test chaos --no-run
    timeout -sKILL 180 \
        cargo test -q -p sync-switch-ps --test chaos || {
        echo "chaos suite failed or timed out (180s budget)" >&2
        return 1
    }
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

# The end-to-end benchmark (benchmark/, BENCHMARK.json) in smoke mode: its
# own package builds offline against the crate's public port API, all four
# workloads run traced and untraced with their correctness checks on
# (exactly-once push count on the TCP tier, zero retries/reconnects/dedup
# hits, BSP same-seed determinism, a reasoned controller switch), and what
# it prints is checked against the committed manifest. Hard KILL timeout:
# a wedged socket must fail the gate, not hang it.
stage_benchmark_smoke() {
    keeping_benchmark_lock timeout -sKILL 600 benchmark/selftest.sh || {
        echo "benchmark selftest failed or timed out (600s budget)" >&2
        return 1
    }
}

# Exhibit golden gate: every paper exhibit `repro --list` names is
# regenerated and compared against goldens/ with per-field tolerances
# (`sync_switch_bench::golden`). A failure names each drifted field; after
# an intentional change, refresh with
# `cargo run --release -p sync-switch-bench --bin repro -- --out goldens all`
# and commit the goldens.
stage_exhibits() {
    cargo run --release -q -p sync-switch-bench --bin repro -- --check
}

stage_examples() {
    cargo build --examples
}

# Multi-process cluster: real `ps-serve` + `ps-worker` OS processes over
# real TCP (spawned by tests/cluster.rs via the ClusterHarness), driven to
# the convergence gate under BSP and ASP, including a mid-run server
# SIGKILL: each worker's handshake finds the respawned instance and the
# worker restores the tier from its segment-start checkpoint. Release profile —
# the crash-timing windows in the test assume release-speed training.
# Hard KILL timeout: a wedged handshake or heal loop must fail the gate,
# not hang it; the EXIT trap reaps any orphaned child processes.
stage_cluster() {
    cargo test -q --release --test cluster --no-run
    rm -f "$CLUSTER_PID_FILE"
    PS_CLUSTER_TEST=1 timeout -sKILL 180 \
        cargo test -q --release --test cluster || {
        echo "cluster suite failed or timed out (180s budget)" >&2
        return 1
    }
    # Zero tolerance for leaked children: the harness guarantees teardown,
    # and this pins that guarantee at the process table — judged against
    # the PIDs this stage's harnesses actually spawned, so a concurrent
    # run elsewhere on the machine cannot fail (or mask) the check.
    local orphans pid
    orphans="$(live_cluster_pids)"
    if [[ -n "$orphans" ]]; then
        echo "orphaned cluster processes left behind:" >&2
        while IFS= read -r pid; do
            ps -o pid=,args= -p "$pid" >&2 || true
        done <<< "$orphans"
        return 1
    fi
    # Telemetry contract at the file level, independent of the in-test
    # assertions: every harness run dir (identified by its spec.json) must
    # hold a Chrome trace from each ps-worker, and worker reports embedding
    # the server stats scraped over the wire.
    local spec dir bad=0
    while IFS= read -r spec; do
        dir="$(dirname "$spec")"
        if ! compgen -G "$dir/worker-*.trace.json" >/dev/null; then
            echo "cluster run $dir: no ps-worker trace file" >&2
            bad=1
        fi
        local rep
        for rep in "$dir"/worker-*.report.json; do
            [[ -f "$rep" ]] || continue
            if ! grep -q '"server_stats"' "$rep"; then
                echo "cluster run $dir: $(basename "$rep") embeds no scraped server stats" >&2
                bad=1
            fi
        done
    done < <(find target/tmp -maxdepth 2 -name spec.json 2>/dev/null)
    return "$bad"
}

# ---- line counts ----------------------------------------------------------

# The counting rule behind every "net negative" claim in CHANGES.md: for each
# `crates/*/src/**/*.rs` and `src/**/*.rs`, the lines before the file's first
# top-level `#[cfg(test)]` (the whole file if it has none), with a subtotal
# per source root and a grand total. Comments and blank lines count — a
# reason-giving comment is part of the code — and moving code into a test
# module does not hide it from review, only from this number.
loc_counts() {
    find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { if (file != "") print n, file; file = FILENAME; n = 0; cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut { n++ }
        END { if (file != "") print n, file }'
}

# The source root a file path rolls up into, as an awk function.
LOC_ROOT='function root(path) {
    if (path ~ /^src\//) return "src"
    sub(/\/src\/.*/, "/src", path)
    return path
}'

print_loc() {
    loc_counts | awk "$LOC_ROOT"'
        { printf "%7d  %s\n", $1, $2; sub_n[root($2)] += $1; total += $1 }
        END {
            print ""
            for (r in sub_n) printf "%7d  %s (subtotal)\n", sub_n[r], r | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
}

# `--loc <rev>`: counts <rev> (unpacked by `git archive` into a temp dir)
# and the working tree by the rule above, and prints a Markdown table: one
# row per file whose count differs (— where a side lacks the file), the
# subtotal of every source root that has such a file, and the total.
print_loc_diff() {
    local rev="$1" tmp
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
        echo "--loc: unknown revision '$rev'" >&2
        return 2
    }
    tmp="$(mktemp -d)"
    git archive "$rev" | tar -x -C "$tmp"
    LC_ALL=C join -a 1 -a 2 -e - -o 0,1.1,2.1 -1 2 -2 2 \
        <(cd "$tmp" && loc_counts | LC_ALL=C sort -k2,2) \
        <(loc_counts | LC_ALL=C sort -k2,2) |
        awk -v rev="$rev" "$LOC_ROOT"'
            function show(n) { return n == "-" ? "—" : n }
            {
                r = root($1); p = $2 + 0; c = $3 + 0
                sub_p[r] += p; sub_c[r] += c; total_p += p; total_c += c
                if ($2 != $3) { printf "| `%s` | %s | %s |\n", $1, show($2), show($3); moved[r] = 1 }
            }
            BEGIN { printf "| file | %s | change |\n|---|---|---|\n", rev }
            END {
                for (r in moved) printf "| `%s` subtotal | %d | %d |\n", r, sub_p[r], sub_c[r] | "sort"
                close("sort")
                printf "| **total** | **%d** | **%d (%+d)** |\n", total_p, total_c, total_c - total_p
            }'
    rm -rf "$tmp"
}

# ---- benchmark pairs ------------------------------------------------------

# The git tree id of a `--pairs` side's build inputs: the root manifest,
# toolchain file, `src`, `crates`, `shims` and `benchmark`, less Markdown,
# `crates/bench` (tooling the benchmark does not depend on) and
# `benchmark/Cargo.lock`, which every benchmark build (the `test` stage
# too) may rewrite. `code_tree <rev>` for a commit (or tree), `code_tree`
# for the working tree as `--pairs` copies it. A commit that lands a
# measured working tree has that tree's code id, so history rows tie back
# to the code they ran, whatever docs, history or scripts changed after.
code_tree() {
    local index="$PWD/target/pairs/code.index"
    mkdir -p "$(dirname "$index")"
    rm -f "$index"
    if [[ $# -gt 0 ]]; then
        GIT_INDEX_FILE="$index" git read-tree "$1"
    else
        GIT_INDEX_FILE="$index" git read-tree HEAD
        GIT_INDEX_FILE="$index" git add -A
    fi
    GIT_INDEX_FILE="$index" git rm -r -q -f --cached --ignore-unmatch -- . \
        ':!Cargo.toml' ':!rust-toolchain.toml' ':!src' ':!crates' ':!shims' ':!benchmark'
    GIT_INDEX_FILE="$index" git rm -r -q -f --cached --ignore-unmatch -- \
        ':(glob)**/*.md' benchmark/Cargo.lock crates/bench
    GIT_INDEX_FILE="$index" git write-tree
    rm -f "$index"
}

# `--pairs <rev> [--workload W]... [--n N] [--seed K]`: builds the benchmark
# once from <rev> (via `git archive`) and once from a copy of the working
# tree (tracked and untracked-but-not-ignored files), each into its own
# target dir under target/pairs, so neither build touches the tree. Then,
# per workload (default: every one BENCHMARK.json declares), N pairs of
# runs of BENCHMARK.json's `run_seconds` each, the order flipping every
# pair; each run's last stdout line goes to target/pairs/runs.tsv, beside
# a copy of the summary the run wrote (its per-job host speed and steal
# ticks). The `pairs` bin prints the verdict table, appends the session to
# BENCH_history.jsonl, and fails the command when a run is not correct,
# failed jobs, or a median left its bound. Nothing else may run on the box
# meanwhile.
run_pairs() {
    local rev="$1"
    shift
    local n=10 seed=1 workloads=()
    while [[ $# -gt 0 ]]; do
        [[ $# -ge 2 ]] || { echo "--pairs: $1 needs a value" >&2; return 2; }
        case "$1" in
            --workload) workloads+=("$2") ;;
            --n) n="$2" ;;
            --seed) seed="$2" ;;
            *) echo "--pairs: unknown option '$1'" >&2; return 2 ;;
        esac
        shift 2
    done
    local parent_sha change_sha change_label parent_code change_code
    parent_sha="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
        echo "--pairs: unknown revision '$rev'" >&2
        return 2
    }
    change_sha="$(git rev-parse HEAD)"
    change_label="$(git rev-parse --short=7 HEAD)"
    [[ -z "$(git status --porcelain)" ]] || change_label="$change_label+dirty"
    parent_code="$(code_tree "$parent_sha")"
    change_code="$(code_tree)"
    # Both trees are built from the same path, one after the other: cargo
    # hashes a package's path into its symbols, so two paths give two code
    # layouts even for one source, and a self-pair would not be A/A. Cargo
    # also judges a path package fresh by its files' mtimes alone, and the
    # target dirs outlive a session: `tar -m` stamps every unpacked file
    # with the current time, so each side's local crates always rebuild
    # from the tree just unpacked, never from an older rev's build.
    local dir="$PWD/target/pairs" side
    local src="$dir/src"
    for side in parent change; do
        step "build benchmark: $side"
        rm -rf "$src"
        mkdir -p "$src"
        if [[ $side == parent ]]; then
            git archive "$parent_sha" | tar -x -m -C "$src"
        else
            git ls-files -z --cached --others --exclude-standard |
                tar --null -T - -c --ignore-failed-read 2>/dev/null | tar -x -m -C "$src"
        fi
        (cd "$src" && cargo build --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml --target-dir "$dir/target-$side")
    done
    cargo build --release --offline --quiet -p sync-switch-bench --bin pairs
    local pairs_bin="target/release/pairs" seconds
    [[ ${#workloads[@]} -gt 0 ]] || mapfile -t workloads < <("$pairs_bin" --workloads BENCHMARK.json)
    seconds="$("$pairs_bin" --run-seconds BENCHMARK.json)"
    local runs="$dir/runs.tsv" w i line k=0 summary
    : > "$runs"
    rm -rf "$dir/summaries"
    mkdir -p "$dir/summaries"
    for w in "${workloads[@]}"; do
        for ((i = 1; i <= n; i++)); do
            local order=(parent change)
            (( i % 2 == 1 )) || order=(change parent)
            for side in "${order[@]}"; do
                step "$w pair $i/$n: $side"
                summary="$dir/summaries/$((++k)).json"
                rm -f "$src/benchmark/out/$w.summary.json"
                line="$(cd "$src" && "$dir/target-$side/release/sync-switch-benchmark" \
                    --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null |
                    tail -n 1 || true)"
                cp "$src/benchmark/out/$w.summary.json" "$summary" 2>/dev/null || true
                printf '%s\t%s\t%s\t%s\n' "$side" "$w" "$summary" "$line" >> "$runs"
            done
        done
    done
    step "verdict: $rev ($parent_sha, code $parent_code) → working tree ($change_label, code $change_code)"
    "$pairs_bin" --runs "$runs" --manifest BENCHMARK.json \
        --parent "$parent_sha" --parent-code "$parent_code" \
        --change "$change_sha" --change-code "$change_code" --change-label "$change_label" \
        --history BENCH_history.jsonl --date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
        --nproc "$(nproc)" --seed "$seed"
}

# ---- driver ---------------------------------------------------------------

# .github/workflows/ci.yml is a hand-kept mirror of STAGES, one step per
# stage: its `./ci.sh --stage <name>` steps, in order, must be STAGES.
check_workflow_mirror() {
    local workflow=".github/workflows/ci.yml"
    diff <(printf '%s\n' "${STAGES[@]}") \
        <(sed -n 's|^ *run: \./ci\.sh --stage \([a-z-]*\)$|\1|p' "$workflow") || {
        echo "$workflow steps (>) do not mirror ./ci.sh --list (<)" >&2
        return 1
    }
}

RAN_STAGES=()
RAN_TIMES=()

run_stage() {
    local name="$1"
    local fn="stage_${name//-/_}"
    if ! declare -F "$fn" >/dev/null; then
        echo "unknown stage '$name' (try: ${STAGES[*]})" >&2
        exit 2
    fi
    step "stage: $name"
    CURRENT_STAGE="$name"
    local t0=$SECONDS
    "$fn"
    RAN_STAGES+=("$name")
    RAN_TIMES+=("$((SECONDS - t0))")
    CURRENT_STAGE=""
}

print_timing_summary() {
    [[ ${#RAN_STAGES[@]} -gt 0 ]] || return 0
    local total=0 i
    printf '\n%-16s %8s\n' "stage" "wall (s)"
    for i in "${!RAN_STAGES[@]}"; do
        printf '%-16s %8s\n' "${RAN_STAGES[$i]}" "${RAN_TIMES[$i]}"
        total=$((total + RAN_TIMES[i]))
    done
    printf '%-16s %8s\n' "total" "$total"
}

fast=0
selected=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --fast) fast=1 ;;
        --stage)
            [[ $# -ge 2 ]] || { echo "--stage requires a name" >&2; exit 2; }
            selected+=("$2")
            shift
            ;;
        --list)
            printf '%s\n' "${STAGES[@]}"
            exit 0
            ;;
        --pairs)
            [[ $# -ge 2 ]] || { echo "--pairs requires a revision" >&2; exit 2; }
            shift
            run_pairs "$@"
            exit $?
            ;;
        --loc)
            if [[ $# -ge 2 && $2 != --* ]]; then
                print_loc_diff "$2"
            else
                print_loc
            fi
            exit 0
            ;;
        *)
            echo "unknown argument '$1'" >&2
            echo "usage: ./ci.sh [--fast] [--stage <name>]... [--list] [--loc [<rev>]]" \
                "[--pairs <rev> [--workload W]... [--n N] [--seed K]]" >&2
            exit 2
            ;;
    esac
    shift
done

if [[ ${#selected[@]} -gt 0 ]]; then
    for name in "${selected[@]}"; do
        run_stage "$name"
    done
else
    check_workflow_mirror
    for name in "${STAGES[@]}"; do
        if [[ $fast -eq 1 ]] && [[ " ${RELEASE_STAGES[*]} " == *" $name "* ]]; then
            continue
        fi
        run_stage "$name"
    done
fi

print_timing_summary
printf '\nCI gate passed.\n'
