#!/usr/bin/env bash
# benchgate.sh — benchmark-regression smoke gate for the commit hot path.
#
# Re-measures the hotpath suite in quick mode and compares allocs/op
# against the committed baseline record (BENCH_hotpath.json at the repo
# root), failing when any benchmark's allocations regress past the
# tolerance. Absolute wall time is deliberately NOT gated — it is not
# stable across CI machines — but six within-run ratios of the
# verification engine are: ecdsa_verify_table / ecdsa_verify_stdlib <= 0.6,
# ecdsa_verify_batch / ecdsa_verify_table <= 0.80 (a block's signatures
# verified range by range, per signature, against one at a time),
# ecdsa_verify_batch / ecdsa_verify_batch_scalar <= 0.65 (the same ranges
# with the affine levels on the 8-lane AVX-512 IFMA kernel against the
# scalar one; on a CPU without the lanes both rows run the scalar code and
# this gate prints as not applicable),
# bmac_validate_block / ecdsa_verify_table <= 0.85 (the same block's FIFO
# entries through an 8x2 core.Processor, per signature: its rounds are such
# ranges; the quotient was 1.11 on one CPU while each request was a batch of
# one, and is 0.6 there now),
# ecdsa_verify_single_use_key / ecdsa_verify_stdlib <= 1.10 (the median of
# the per-round quotients of the 40 interleaved rounds, since both rows are
# crypto/ecdsa verifications and the quotient of their totals swings with
# the host) and
# key_table_build_verifies_x <= 1.5 * PromoteAfter + 1 = 25 (rows measured
# interleaved with crypto/ecdsa in one process — the record's ratio_rows, and
# the build against a crypto/ecdsa row of its own — so the quotients hold on
# another host where the ns do not). One holds the hash lanes:
# sha256_range_lanes / sha256_range <= 0.80 (a vscc range's digests as
# validator.VSCC hashes them, on the 16-lane AVX-512 SHA-256 kernel, against
# one crypto/sha256 stream per message, the two measured interleaved; on a
# CPU without the kernel both rows hash one message at a time and this gate
# prints as not applicable). Two more hold the BMac protocol
# sender: bmac_encode_block_64ids / bmac_encode_block <= 1.25 (EncodeBlock
# must not grow with the number of registered identities) and
# bmac_encode_block / marshal_block <= 50, the three measured interleaved.
# Two hold the signer: ecdsa_sign / ecdsa_sign_hedged <= 0.90
# (fabcrypto's RFC 6979 signer against crypto/ecdsa's hedged one, which
# draws fresh entropy into every nonce) and ecdsa_sign / ecdsa_sign_stdlib
# <= 0.75 (against crypto/ecdsa's RFC 6979 signer, which gives the same
# signatures before low-S); the three measured interleaved.
#
# The suite includes the telemetry-off gate: block_validate_telemetry_off
# runs block validation with the telemetry plane disabled (nil instruments)
# and must match the committed baseline — the zero-cost-when-off contract
# of the telemetry plane. A baseline predating that row fails fast below.
#
# Usage: scripts/benchgate.sh [baseline.json]
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_hotpath.json}"
if [ ! -f "$baseline" ]; then
    echo "benchgate: baseline $baseline not found" >&2
    echo "benchgate: regenerate with: go run ./cmd/bmacbench -exp hotpath -json $baseline" >&2
    exit 1
fi
if ! grep -q '"block_validate_telemetry_off"' "$baseline"; then
    echo "benchgate: baseline $baseline lacks the telemetry-off gate row" >&2
    echo "benchgate: regenerate with: go run ./cmd/bmacbench -exp hotpath -json $baseline" >&2
    exit 1
fi

exec go run ./cmd/bmacbench -exp hotpath -quick -gate "$baseline"
