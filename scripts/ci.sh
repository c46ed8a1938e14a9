#!/usr/bin/env bash
# Tier-1 gate plus lint, run locally before every merge:
#   scripts/ci.sh
#
# 1. release build of the whole workspace;
# 2. full test suite (unit, integration, proptests, equivalence suites),
#    then the fused RNN cell identity suite again at IDGNN_PARALLELISM=4;
# 3. sparse suite again with strict-invariants (runtime CsrMatrix::validate
#    re-asserted at every construction/splice/assemble site);
# 4. sparse suite under schedule-perturbation: the parallel helpers run
#    through seeded adversarial worker schedules and must stay bit-identical
#    to the serial path (the runtime half of the determinism contract,
#    DESIGN.md §15);
# 5. sparse suite under proven-unchecked (alone and combined with
#    schedule-perturbation): the certificate-backed unchecked fast path must
#    stay bit-identical to the checked reference, including under seeded
#    adversarial schedules (DESIGN.md §16);
# 6. idgnn-lint workspace scan (with --timing) against the checked-in
#    lint.baseline ratchet — zero entries with the determinism family on,
#    zero unchecked-access findings, and no bounds-certificate drift against
#    the committed results/lint.json;
# 7. kernel-benchmark smoke run + structural JSON validation;
# 8. DSE smoke sweep regenerating results/dse.json + structural validation;
# 9. clippy over every target with warnings denied.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> fused RNN cell identity (IDGNN_PARALLELISM=4)"
# The fused LSTM/GRU step against the unfused GEMM + element-wise oracle,
# bit for bit, with the process-default kernel parallelism at 4 so the
# un-scoped model-level step also runs row-blocked (DESIGN.md §17).
IDGNN_PARALLELISM=4 cargo test -q -p idgnn-model --test rnn_fused_identity

echo "==> cargo test -p idgnn-sparse --features strict-invariants"
cargo test -q -p idgnn-sparse --features strict-invariants

echo "==> cargo test -p idgnn-sparse --features schedule-perturbation"
# Adversarial schedule proptests: a small fixed budget (8 seeds per kernel
# invocation at parallelism 4, 16 proptest cases) keeps this a few seconds.
cargo test -q -p idgnn-sparse --features schedule-perturbation --test perturbation

echo "==> cargo test -p idgnn-sparse --features proven-unchecked"
# The certificate-backed fast path: the full sparse suite with the unchecked
# accessors live, then the perturbation suite with both features on so the
# unchecked arm is exercised under every adversarial worker schedule. Both
# must be bit-identical to the checked build (DESIGN.md §16).
cargo test -q -p idgnn-sparse --features proven-unchecked
cargo test -q -p idgnn-sparse --features "schedule-perturbation proven-unchecked" \
  --test perturbation

echo "==> idgnn-lint (baseline ratchet + per-rule timing + results/lint.json)"
# --timing profiles each rule in isolation and fails the run when any rule
# exceeds 5x the median rule time (floored), so a pathological rule cannot
# silently dominate the lint stage.
cargo run --release -q -p idgnn-lint -- --timing --json
# Structural validation of the JSON report from the outside: rule set,
# typed findings, zero regressions, zero new findings, zero unchecked-access
# findings (the hard bounds gate), well-typed certificate records, timing
# gate clean.
cargo run --release -q -p idgnn-bench --bin lintv -- results/lint.json
# Certificate drift: the canonical one-line-per-certificate rendering of the
# fresh scan must match the committed report (results/lint.json is force-added
# past the results/ ignore, like dse.json), so an edit that silently loses or
# gains a bounds proof shows up as a reviewable diff. The diff compares only
# the certificate lines, never the run-varying --timing profile.
if git cat-file -e HEAD:results/lint.json 2>/dev/null; then
  fresh_certs="target/lint_certs_fresh.txt"
  committed_certs="target/lint_certs_committed.txt"
  cargo run --release -q -p idgnn-bench --bin lintv -- --certs results/lint.json \
    >"$fresh_certs"
  git show HEAD:results/lint.json >target/lint_committed.json
  cargo run --release -q -p idgnn-bench --bin lintv -- --certs target/lint_committed.json \
    >"$committed_certs"
  diff -u "$committed_certs" "$fresh_certs" || {
    echo "error: bounds certificates drifted from the committed results/lint.json" >&2
    exit 1
  }
else
  echo "note: results/lint.json not in HEAD yet; skipping certificate drift check"
fi
# The --explain subcommand must document every rule (smoke: one of each
# family — a token rule, a flow rule, a determinism dataflow rule, the
# static config verifier, and a bounds rule — plus the `determinism` and
# `bounds` family aliases).
for rule in hot-path-alloc resource-flow unordered-iteration hw-budget \
            unchecked-access determinism bounds; do
  cargo run --release -q -p idgnn-lint -- --explain "$rule" >/dev/null
done

echo "==> bench kernels --smoke"
# The binary re-reads and validates its own JSON (exit != 0 on corruption);
# `--validate` then re-checks the structure from the outside with the
# jsonv parser: required sections present and non-empty, rows typed, and
# nonzero saved work from the delta-rate sweep.
smoke_json="target/BENCH_kernels_smoke.json"
cargo run --release -q -p idgnn-bench --bin kernels -- --smoke --out "$smoke_json"
cargo run --release -q -p idgnn-bench --bin kernels -- --validate "$smoke_json"
# The smoke run includes a reduced locality sweep (two datasets, one churn
# rate, all four vertex orderings); the structural validator above gates its
# shape, gate verdict, and churn parity. This grep only guards against the
# section silently disappearing from the writer.
grep -q '"locality"' "$smoke_json" || {
  echo "error: $smoke_json lacks the locality sweep section" >&2
  exit 1
}
# The committed full-run report must also satisfy the current schema and
# gates (thread-scaling coverage, baseline efficiency, roofline vs triad
# peak) so a kernel or schema change cannot leave a stale baseline behind.
cargo run --release -q -p idgnn-bench --bin kernels -- --validate BENCH_kernels.json

echo "==> bench dse --smoke"
# The design-space sweep: enumerate the smoke grid (hundreds of candidates),
# prune with the shared hw-budget verifier, rank with the analytical cost
# model, and extract the Pareto front. The binary re-reads and validates its
# own JSON; `--validate` then re-checks the committed report from the
# outside (candidate accounting, non-negative front headrooms, canonical
# order, and the paper's 32x32 baseline on the front). The sweep is
# deterministic, so the regenerated file must match the committed one.
cargo run --release -q -p idgnn-bench --bin dse -- --smoke --out results/dse.json
cargo run --release -q -p idgnn-bench --bin dse -- --validate results/dse.json
git diff --exit-code -- results/dse.json || {
  echo "error: results/dse.json drifted from the committed sweep" >&2
  exit 1
}

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: all green"
