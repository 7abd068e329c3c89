#!/usr/bin/env bash
# End-to-end test of the annsim CLI: generate -> ground truth -> build ->
# search -> eval -> info, asserting the reported recall is high.
set -euo pipefail

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" gen SIFT 4000 100 "$DIR/demo" 7
"$CLI" gt "$DIR/demo_base.fvecs" "$DIR/demo_query.fvecs" 10 "$DIR/gt.ivecs"
"$CLI" build "$DIR/demo_base.fvecs" "$DIR/demo.idx" --workers 8 --M 12 --efc 80
"$CLI" search "$DIR/demo.idx" "$DIR/demo_query.fvecs" 10 "$DIR/res.ivecs"
"$CLI" info "$DIR/demo.idx" | grep -q "8 partitions"

# An image is content: the same build saves the same bytes, and replication
# does not multiply it (one snapshot per partition, not per replica).
"$CLI" build "$DIR/demo_base.fvecs" "$DIR/twin.idx" --workers 8 --M 12 --efc 80
diff -r "$DIR/demo.idx" "$DIR/twin.idx" || {
  echo "FAIL: two identical builds saved different images"
  exit 1
}
"$CLI" build "$DIR/demo_base.fvecs" "$DIR/r2.idx" --workers 8 --M 12 --efc 80 \
  --replication 2
image_bytes() { find "$1" -type f -printf '%s\n' | awk '{ s += $1 } END { print s }'; }
BYTES1="$(image_bytes "$DIR/demo.idx")"
BYTES2="$(image_bytes "$DIR/r2.idx")"
awk -v a="$BYTES1" -v b="$BYTES2" 'BEGIN { exit !(b <= 1.05 * a) }' || {
  echo "FAIL: r=2 image is $BYTES2 bytes against $BYTES1 at r=1"
  exit 1
}
# Replicas are copies: the r=2 engine loaded from its image answers exactly
# as the r=1 one does.
"$CLI" search "$DIR/r2.idx" "$DIR/demo_query.fvecs" 10 "$DIR/res_r2.ivecs"
cmp "$DIR/res.ivecs" "$DIR/res_r2.ivecs" || {
  echo "FAIL: r=2 answers differ from r=1"
  exit 1
}

RECALL_LINE="$("$CLI" eval "$DIR/res.ivecs" "$DIR/gt.ivecs" 10)"
echo "$RECALL_LINE"
RECALL="$(echo "$RECALL_LINE" | sed -n 's/recall@10 = \([0-9.]*\).*/\1/p')"
awk -v r="$RECALL" 'BEGIN { exit !(r > 0.85) }' || {
  echo "FAIL: recall $RECALL too low"
  exit 1
}

# Exact configuration: brute-force local indexes must hit recall 1.0 when
# probing everything.
"$CLI" build "$DIR/demo_base.fvecs" "$DIR/exact.idx" --workers 4 --nprobe 4 \
  --local bruteforce
"$CLI" search "$DIR/exact.idx" "$DIR/demo_query.fvecs" 10 "$DIR/res2.ivecs"
RECALL2="$("$CLI" eval "$DIR/res2.ivecs" "$DIR/gt.ivecs" 10 |
  sed -n 's/recall@10 = \([0-9.]*\).*/\1/p')"
awk -v r="$RECALL2" 'BEGIN { exit !(r > 0.9999) }' || {
  echo "FAIL: exact recall $RECALL2 != 1.0"
  exit 1
}

# The exact tree local index must return the same exact answers, and the
# saved engine must report its kind.
"$CLI" build "$DIR/demo_base.fvecs" "$DIR/tree.idx" --workers 4 --nprobe 4 \
  --local exacttree
"$CLI" info "$DIR/tree.idx" | grep -q "local=exacttree"
"$CLI" search "$DIR/tree.idx" "$DIR/demo_query.fvecs" 10 "$DIR/res4.ivecs"
cmp "$DIR/res2.ivecs" "$DIR/res4.ivecs" || {
  echo "FAIL: exact tree answers differ from brute force"
  exit 1
}

# Quantized configuration: --quantize sq8 stores frozen segments as SQ8
# codes with an exact re-rank cache; recall must survive the compression
# and the index must save/load/search round-trip.
QUANT_BUILD="$("$CLI" build "$DIR/demo_base.fvecs" "$DIR/quant.idx" \
  --workers 4 --M 12 --efc 80 --quantize sq8 --float-cache 0.02)"
echo "$QUANT_BUILD" | grep -q "sq8"
"$CLI" search "$DIR/quant.idx" "$DIR/demo_query.fvecs" 10 "$DIR/res3.ivecs"
RECALL3="$("$CLI" eval "$DIR/res3.ivecs" "$DIR/gt.ivecs" 10 |
  sed -n 's/recall@10 = \([0-9.]*\).*/\1/p')"
awk -v r="$RECALL3" 'BEGIN { exit !(r > 0.85) }' || {
  echo "FAIL: quantized recall $RECALL3 too low"
  exit 1
}

echo "CLI pipeline OK (recall $RECALL, exact $RECALL2, quantized $RECALL3)"
