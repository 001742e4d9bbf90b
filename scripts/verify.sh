#!/usr/bin/env bash
# Full verification: the tier-1 gate (ROADMAP.md) plus the lint gate.
# Run from the repo root. Any failure aborts with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

# Every crate's unit and integration tests, the root package's (tier-1's
# `cargo test -q`) included: lint, serve loopback, columnar round-trip and
# manifest grammar, snapshot/lane/partial-order equivalence, class
# layering + key-class laws + the Fig. 5 rank-work bound, the ingest
# pipeline, storage fuzz.
echo "==> tier-1: cargo test -q --workspace"
cargo test -q --workspace

echo "==> tier-1: cargo bench --no-run (criterion harnesses compile)"
cargo bench --no-run

echo "==> lint gate: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> lint gate: pimento-lint workspace invariants (JSON report)"
cargo run -p lint --release -- --workspace --format json | scripts/lint-report.sh

echo "==> chaos gate: cargo test -q -p pimento-serve --features fault-injection"
cargo test -q -p pimento-serve --features fault-injection

echo "==> chaos gate: clippy over the fault-injection configuration"
cargo clippy -p pimento-serve --features fault-injection --all-targets -- -D warnings

echo "==> snapshot gate: build + inspect a fresh v4 fixture; a v3 file is refused"
SNAP_DIR="$(mktemp -d)"
trap 'rm -rf "$SNAP_DIR"' EXIT
cat > "$SNAP_DIR/fixture.xml" <<'XML'
<dealer><car><description>good condition low mileage</description><price>1500</price></car></dealer>
XML
cargo run -q -p pimento-serve --release --bin pimento -- \
  snapshot build --docs "$SNAP_DIR/fixture.xml" --out "$SNAP_DIR/fixture.v4.snap"
cargo run -q -p pimento-serve --release --bin pimento -- \
  snapshot inspect "$SNAP_DIR/fixture.v4.snap"
printf 'PIMCOL3\0\3\0\0\0' > "$SNAP_DIR/fixture.v3.snap"
if cargo run -q -p pimento-serve --release --bin pimento -- \
  snapshot inspect "$SNAP_DIR/fixture.v3.snap"; then
  echo "snapshot inspect accepted a v3 file" >&2
  exit 1
fi

echo "==> shard gate: sharded snapshot build + inspect round-trip"
for i in 1 2 3; do
  cp "$SNAP_DIR/fixture.xml" "$SNAP_DIR/fixture$i.xml"
done
cargo run -q -p pimento-serve --release --bin pimento -- \
  snapshot build --docs "$SNAP_DIR"/fixture?.xml --out "$SNAP_DIR/sharded" --shards 3
cargo run -q -p pimento-serve --release --bin pimento -- \
  snapshot inspect "$SNAP_DIR/sharded"

echo "==> shard gate: one flipped byte in a segment fails inspect and scrub"
cp -r "$SNAP_DIR/sharded" "$SNAP_DIR/damaged"
SEGMENT="$(ls "$SNAP_DIR"/damaged/*.v4.snap | head -n 1)"
OFFSET=$(( $(stat -c %s "$SEGMENT") / 2 ))
BYTE=$(od -An -tu1 -j "$OFFSET" -N 1 "$SEGMENT" | tr -d ' ')
printf "\\$(printf '%03o' $(( BYTE ^ 1 )))" |
  dd of="$SEGMENT" bs=1 seek="$OFFSET" count=1 conv=notrunc status=none
for verb in "snapshot inspect" "scrub --data-dir"; do
  # shellcheck disable=SC2086
  cargo run -q -p pimento-serve --release --bin pimento -- $verb "$SNAP_DIR/damaged" \
    && rc=0 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "pimento $verb exited $rc on a damaged segment (expected 1)" >&2
    exit 1
  fi
done

echo "==> ingest gate: chaos suite with write-path faults"
cargo test -q -p pimento-ingest --features fault-injection
cargo test -q -p pimento-serve --features fault-injection --test chaos -- ingest publish_crash

echo "==> ingest gate: clippy over the ingest fault-injection configuration"
cargo clippy -p pimento-ingest --features fault-injection --all-targets -- -D warnings

echo "==> crash gate: exhaustive crash-point matrices (kill at every VFS mutation)"
cargo test -q -p pimento-ingest --features fault-injection --test crash_matrix
cargo test -q -p pimento-serve --features fault-injection --test crash_matrix

echo "==> scrub gate: single-bit-flip detection/quarantine/repair"
cargo test -q -p pimento-serve --features fault-injection --test scrub_integrity

echo "==> scrub gate: one-shot pimento scrub over a fresh sharded snapshot"
cargo run -q -p pimento-serve --release --bin pimento -- scrub --data-dir "$SNAP_DIR/sharded"

echo "==> bench gate: perfbench builds against the workspace API and its smoke tests pass"
# perfbench/ is a package of its own (path dependencies on crates/*), so
# nothing above compiles it: an Engine or serve API change could break
# the benchmark without this. Its smoke test is also the end-to-end serve
# gate: serve.warm, serve.cold and serve.ingest over loopback, zero failed
# operations.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> verify OK"
