#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
# Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# A hung test (the exact failure class tests/chaos.rs exists to prevent)
# must fail CI, not wedge it: every test invocation gets a hard wall-clock
# cap. `--foreground` lets cargo's own output through and signals the
# whole process group on expiry.
TEST_TIMEOUT=600
run_tests() {
    timeout --foreground "$TEST_TIMEOUT" "$@" || {
        status=$?
        if [ "$status" -eq 124 ]; then
            echo "ERROR: '$*' exceeded ${TEST_TIMEOUT}s — deadlocked test?" >&2
        fi
        exit "$status"
    }
}

# Every crate under vendor/ must be depended on: by a member manifest
# through its [workspace.dependencies] entry, or by a sibling shim's
# `path = "../<name>"`. An unused shim is dead code that still compiles,
# tests and shows up in Cargo.lock.
echo "==> vendor/ holds no unused crate"
for dir in vendor/*/; do
    name=$(basename "$dir")
    if grep -q "^$name = { path = \"vendor/$name\" }" Cargo.toml &&
        grep -qs "^$name = { workspace = true" Cargo.toml crates/*/Cargo.toml; then
        continue
    fi
    grep -qs "^$name = { path = \"\.\./$name\" }" vendor/*/Cargo.toml && continue
    echo "ERROR: vendor/$name is used by no manifest — delete it" >&2
    exit 1
done

echo "==> cargo build --release"
cargo build --release

# One step path (DESIGN.md §11): BP hands each key to the strategy as it
# is produced. The export-then-stage-then-push chain it replaced must not
# grow back beside it — not in the worker loop, not in the strategies
# (their unit tests, below `#[cfg(test)]`, may say what they like).
echo "==> core/{worker,strategy}.rs hold no export-then-stage step path"
if grep -n "export_grads\|prepare_push" crates/core/src/worker.rs ||
    sed '/^#\[cfg(test)\]/,$d' crates/core/src/strategy.rs | grep -n "export_grads\|prepare_push"; then
    echo "ERROR: the old step chain is back in the worker's step path" >&2
    exit 1
fi

# One copy chain less per stage (DESIGN.md §3): the strategies adopt
# pulled weights by pointer — at every site: adopt, the Local SGD sync and
# both resume paths — and the 2-bit quantizer emits packed bytes in one
# pass. Neither the import copy nor the symbol scratch may grow back
# beside the new path.
echo "==> core/strategy.rs imports no pulled weights by copy; compress/twobit.rs keeps no symbol scratch"
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/strategy.rs | grep -n "import_params_from"; then
    echo "ERROR: a strategy copies the pulled snapshot into the model again" >&2
    exit 1
fi
if grep -n "symbols" crates/compress/src/twobit.rs; then
    echo "ERROR: TwoBitQuantizer names a symbol scratch again" >&2
    exit 1
fi

# One checkpoint container (DESIGN.md §14): `ps::recover` owns the
# on-disk format, its magic and its one durable writer. Nothing else's
# program half (above `#[cfg(test)]`) may name a checkpoint magic, fsync
# a file, or define a second `write_atomic`.
echo "==> only ps/recover.rs holds a checkpoint format or a durable writer"
for f in $(git ls-files '*.rs' | grep -v '^crates/ps/src/recover\.rs$'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" 'b"CD\|sync_all\|fn write_atomic'; then
        echo "ERROR: a checkpoint format or durable writer outside ps/recover.rs" >&2
        exit 1
    fi
done

# One collective wiring (DESIGN.md §16): the ring's two TCP builders
# share one dial, so the program half of ps/collective.rs dials a TCP
# link and sends a rank hello in exactly one place, and `Collective`
# keeps its two verbs (the ring's scatter and gather are private steps).
echo "==> ps/collective.rs dials and says hello in one place; Collective has two verbs"
prog=$(sed '/^#\[cfg(test)\]/,$d' crates/ps/src/collective.rs | grep -v '^ *//')
for call in 'TcpTransport::connect(' 'send_hello('; do
    sites=$(grep -F "$call" <<<"$prog" | grep -vc 'fn ' || true)
    if [ "$sites" -gt 1 ]; then
        echo "ERROR: ps/collective.rs calls $call at $sites sites; dial through \`dial\`" >&2
        exit 1
    fi
done
if sed -n '/^pub trait Collective/,/^}/p' <<<"$prog" | grep -n 'fn reduce_scatter\|fn all_gather'; then
    echo "ERROR: trait Collective declares reduce_scatter/all_gather again" >&2
    exit 1
fi

# One all-reduce, one step loop (DESIGN.md §16): the ring is the only
# collective, and every ring step, loopback or TCP, runs one loop that
# yields for at most `SPIN` and then sleeps in poll(2). The tree
# collective (its type, shape, topology, frame phases or cost model) may
# not grow back in the program half of the files that held it, and
# ps/collective.rs yields in that one bounded place only: no second,
# unbounded spin beside it.
echo "==> no tree collective; the ring step yields in one bounded place"
for f in crates/ps/src/collective.rs crates/net/src/wire.rs crates/core/src/config.rs \
    crates/simtime/src/cluster.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" \
        'WireTree\|Shape::Tree\|Topology::Tree\|COLLECTIVE_TREE_\|tree_allreduce_time'; then
        echo "ERROR: the tree collective is back; the ring is the one all-reduce" >&2
        exit 1
    fi
done
if [ "$(grep -c 'yield_now' <<<"$prog")" -ne 1 ] ||
    ! grep -B1 'yield_now' <<<"$prog" | grep -q 'if now < spin_end'; then
    echo "ERROR: ps/collective.rs yields outside the step's bounded SPIN window" >&2
    exit 1
fi

# Bulk frames land where they are consumed (DESIGN.md §3, §9): a raw
# push's f32s are read straight into pool storage and a pull reply's into
# the snapshot its waiter is handed, through `Landing`. The decode-then-
# copy path into a reused snapshot must not grow back beside it.
echo "==> net/wire.rs defines no decode-into-a-reused-snapshot path"
if grep -n "fn decode_msg_reusing\|type SnapshotSlot\|SnapshotSlot<" crates/net/src/wire.rs; then
    echo "ERROR: wire.rs decodes pull replies into an offered snapshot again; land them" >&2
    exit 1
fi

# One stream transport, one message encoder (DESIGN.md §9): every link is
# a `FrameStream` over a TCP or Unix socket, so the hand-built loopback
# queue may not grow back in the program half of net/, and
# `encode_msg_into` writes each message kind in its arm — no per-kind
# encoder beside it. Every link is a descriptor, so ps/ polls no
# `Option<RawFd>` (the wake path of a link that had none).
echo "==> net/ frames through one stream transport and one message encoder; ps/ polls only descriptors"
for f in $(git ls-files 'crates/net/src/*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" \
        -e '\bstruct \(FrameQueue\|LoopbackTransport\)\b' \
        -e '\bfn encode_\(pull\|set_lr\|snapshot\|snapshot_reply\|shutdown\|register\|register_ack\|heartbeat\|leave\|cancel_join\|checkpoint\|checkpoint_ack\)_into\b'; then
        echo "ERROR: a second transport or a per-kind message encoder is back in net/; use FrameStream and encode_msg_into" >&2
        exit 1
    fi
done
if git grep -n 'Option<RawFd>' -- 'crates/ps/src/*.rs'; then
    echo "ERROR: ps/ polls a link that may have no descriptor; every Transport has an fd" >&2
    exit 1
fi

# One reply path per PS connection (DESIGN.md §13): a `RemoteClient`
# matches replies to one FIFO of waiters, and a pull whose connection
# died is re-issued by the thread waiting on it. Neither the reconnect
# supervisor thread nor the single-slot register guard may grow back.
echo "==> ps/ runs no reconnect supervisor; NetError has no RegisterPending"
for f in $(git ls-files 'crates/ps/src/*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -Hn --label="$f" 'ps-reconnect\|\(struct\|enum\|type\) \(PullCmd\|OutstandingPull\)\b'; then
        echo "ERROR: the reconnect supervisor is back; let the waiting thread re-issue" >&2
        exit 1
    fi
done
if grep -n 'RegisterPending' crates/net/src/error.rs; then
    echo "ERROR: NetError declares RegisterPending again; replies are matched in order" >&2
    exit 1
fi

# One shard core, one message vocabulary (DESIGN.md §13): a shard's
# requests are `WireMsg`s, decided by `Shard` in one match. No private
# request enum, no psd reply enum and no connection-attributed or async
# client variants may grow back beside it, and the core's rules stay
# methods, not free functions with long argument lists.
echo "==> ps/ hands its shard WireMsgs; no Msg, Reply or *_async/*_from variants"
for f in $(git ls-files 'crates/ps/src/*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" \
        -e '\benum \(Msg\|Reply\)\b' \
        -e '\bfn \(push_from\|join_async\|join_async_from\|snapshot_async\|checkpoint_async\|cancel_join_from\|waking\)\b'; then
        echo "ERROR: a second request vocabulary is back in ps/; send the shard a WireMsg" >&2
        exit 1
    fi
done
if grep -n 'too_many_arguments' crates/ps/src/server.rs crates/ps/src/shard.rs; then
    echo "ERROR: a shard rule takes its state as arguments again; make it a Shard method" >&2
    exit 1
fi

# One client verb (DESIGN.md §13): every layer of the client stack is one
# `ParamClient::request` taking a `WireMsg` (plus `pool`), and the typed
# calls are written once, as the trait's provided methods. No implementor
# — test fakes included — may override a typed call, no client may carry
# an inherent copy of one, `remote.rs` may not grow its per-kind
# take-closure `request<T>` back, and which reply answers which request
# is decided in `net/wire.rs` alone.
echo "==> every ParamClient impl is request + pool; the pairing rule lives in net/wire.rs"
for f in $(git ls-files '*.rs'); do
    awk '
        / ParamClient for / && /^ *impl/ { inside = 1; end = substr($0, 1, match($0, /[^ ]/) - 1) "}"; next }
        inside && $0 == end { inside = 0 }
        inside && /^ *fn / && !/^ *fn (request|pool)\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit bad }
    ' "$f" || {
        echo "ERROR: a ParamClient impl defines more than request and pool; write the call once on the trait" >&2
        exit 1
    }
done
for f in $(git ls-files 'crates/ps/src/*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" \
        'pub fn \(push\|pull\|pull_async\|pull_all\|register\|leave\|cancel_join\|heartbeat\|set_lr\|snapshot\|checkpoint_now\|shutdown_server\)\b'; then
        echo "ERROR: a client carries an inherent copy of a typed call; it is a ParamClient provided method" >&2
        exit 1
    fi
done
if grep -n 'fn request<' crates/ps/src/remote.rs ||
    git grep -n 'fn \(answered\|answers\)\b' -- '*.rs' | grep -v '^crates/net/src/wire\.rs:'; then
    echo "ERROR: a second request/reply pairing rule; ask cdsgd_net::wire::{answered, answers}" >&2
    exit 1
fi

# One pass per server round (DESIGN.md §3): a round decodes, sums and
# steps block by block through a stack buffer. The program half of
# ps/shard.rs may neither name a key-sized `acc` nor decode a whole
# payload at once; the block forms are the only decoders it calls.
echo "==> ps/shard.rs keeps no key-sized accumulator and decodes by block"
if sed '/^#\[cfg(test)\]/,$d' crates/ps/src/shard.rs |
    grep -n '\bacc\b\|\bdecompress(\|\bdecompress_add('; then
    echo "ERROR: ps/shard.rs aggregates into a key-sized buffer again; use round_pass" >&2
    exit 1
fi

# One emulated link (DESIGN.md §9): every transfer books
# `max(now, free_at) + bytes × delay` on its shard's `Link`, and its
# receiver waits out its own deadline. No thread sleeps on the link's
# behalf: the program half of ps/ defines no `net_delay`, and no file but
# ps/link.rs reads `delay_per_byte` (the config may still set it).
echo "==> ps/ emulates its link in ps/link.rs alone; no net_delay"
for f in $(git ls-files 'crates/ps/src/*.rs'); do
    prog=$(sed '/^#\[cfg(test)\]/,$d' "$f")
    if grep -Hn --label="$f" '\bfn net_delay\b' <<<"$prog" ||
        { [ "$f" != crates/ps/src/link.rs ] &&
            grep -Hn --label="$f" '\.delay_per_byte\b' <<<"$prog" | grep -v '\.delay_per_byte = '; }; then
        echo "ERROR: the emulated link is read or slept outside ps/link.rs; book it through Link" >&2
        exit 1
    fi
done

# One GEMM source (DESIGN.md §15): the packed core is written once over a
# lane trait and instantiated at ymm and zmm width, so none of its
# building blocks may be defined twice under kernel/ — a copied zmm twin
# fails here. And `gemm_tn` writes C, so the program half of nn/dense.rs
# clears no gradient before the GEMM that writes it.
echo "==> kernel/ defines the packed GEMM core once; nn/dense.rs zero-fills no GEMM output"
dups=$(grep -rhoE '\bfn (walk|pack_rows|pack_cols|ikj_rows|dot_rows)\b' crates/tensor/src/kernel/ |
    sort | uniq -d | tr '\n' ' ')
if [ -n "$dups" ]; then
    echo "ERROR: defined more than once under crates/tensor/src/kernel/: ${dups}— instantiate the one core" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/nn/src/dense.rs | grep -n 'fill_zero'; then
    echo "ERROR: nn/dense.rs zero-fills before a GEMM that writes its output" >&2
    exit 1
fi

# One source per elementwise kernel (DESIGN.md §15): a kernel that maps
# each element on its own gets its AVX2 body by compiling the scalar
# reference again, through the one `compiled_for_avx2!` list in
# kernel/avx2.rs. The program half of that file may define none of them
# by hand, and the SIMD im2col that no program path called may not grow
# back.
echo "==> kernel/avx2.rs defines no elementwise kernel by hand and no SIMD im2col"
if sed '/^#\[cfg(test)\]/,$d' crates/tensor/src/kernel/avx2.rs | grep -nE \
    -e '\bfn (axpy|scale|add_assign|add_scalar|add_into|zero_add|scale_add|sgd_step)\b' \
    -e '\bfn (decay_add|nesterov_step|threshold_scan_store|threshold_core|sign_residual)\b' \
    -e '\bfn (bn_normalize|bn_input_grad)\b' -e 'im2col_planes'; then
    echo "ERROR: kernel/avx2.rs writes an elementwise kernel by hand or unrolls im2col; list it in compiled_for_avx2!" >&2
    exit 1
fi

# Layer workspaces (DESIGN.md §15): Conv2d keeps its input and one
# reused column-gradient buffer, and reads its column matrices from the
# image inside the GEMM (kernel::conv_forward, kernel::conv_weight_grad):
# no explicit unroll grows back beside the implicit operand, no per-sample
# column tensors, no product into a temporary that is then copied.
# BatchNorm2d sums its channels through kernel::channel_sums, not an
# index iterator per element. And a layer output that a kernel writes
# whole is built without a zero fill first: the program halves of
# nn/{conv2d,batchnorm,activation}.rs bind no `Tensor::zeros` to fill in
# (Conv2d's `dx`, a col2im scatter-add target, is zeroed in place).
echo "==> nn/conv2d.rs unrolls no columns; nn/batchnorm.rs walks no channel index by index; no zero-filled layer outputs"
conv=$(sed '/^#\[cfg(test)\]/,$d' crates/nn/src/conv2d.rs)
if grep -nE 'Vec<Tensor>|\.matmul\(' <<<"$conv"; then
    echo "ERROR: nn/conv2d.rs keeps per-sample column tensors or multiplies into a temporary; gemm into the output" >&2
    exit 1
fi
if grep -n 'im2col_into' <<<"$conv"; then
    echo "ERROR: nn/conv2d.rs unrolls a column matrix again; read it from the image through kernel::conv_forward / conv_weight_grad" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/nn/src/batchnorm.rs | grep -n 'channel_indices'; then
    echo "ERROR: nn/batchnorm.rs walks a channel index by index; sum through kernel::channel_sums" >&2
    exit 1
fi
for f in crates/nn/src/conv2d.rs crates/nn/src/batchnorm.rs crates/nn/src/activation.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -Hn --label="$f" 'let mut [a-z_]* = Tensor::zeros('; then
        echo "ERROR: a layer zero-fills an output a kernel then writes whole; append it or collect it" >&2
        exit 1
    fi
done

# A `--trace` run with no second flag must carry every lane: both
# workers' op spans and the server's (lane = worker count). The same
# command's trace is parsed back line by line through
# `parse_jsonl_line` by `cdsgd_train_trace_alone_carries_every_lane`
# (tests/net_processes.rs, run by the workspace pass below). Every worker
# lane must also hold a `push` span: the per-key hand-off from inside BP.
echo "==> cdsgd train --trace carries OpSpan lanes 0, 1 and 2, and each worker's pushes"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
target/release/cdsgd train --algo cdsgd --dataset blobs --epochs 1 --workers 2 \
    --trace "$tmp/t.jsonl" >/dev/null
for lane in 0 1 2; do
    grep -q "^{\"OpSpan\":{\"worker\":$lane," "$tmp/t.jsonl" || {
        echo "ERROR: --trace alone wrote no OpSpan on lane $lane" >&2
        exit 1
    }
done
for lane in 0 1; do
    grep -q "^{\"OpSpan\":{\"worker\":$lane,\"op\":\"Push\"," "$tmp/t.jsonl" || {
        echo "ERROR: worker lane $lane traced no push span" >&2
        exit 1
    }
done

# Instrumentation stays in the layers that own a `Telemetry` handle: the
# compute crates are timed by their callers.
echo "==> compress/tensor/nn do not depend on cdsgd-telemetry"
if grep -l "cdsgd-telemetry" crates/compress/Cargo.toml crates/tensor/Cargo.toml crates/nn/Cargo.toml; then
    echo "ERROR: a compute crate names cdsgd-telemetry in its manifest" >&2
    exit 1
fi

# The criterion bench (crates/bench/benches/telemetry_overhead.rs,
# `harness = false`) is built by neither `cargo build` nor `cargo test`,
# yet it sits on the public API (`Trainer`, `Telemetry`, the sinks):
# compile it, run nothing, so a stale bench fails here instead of
# rotting.
echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> cargo test -q --workspace"
run_tests cargo test -q --workspace

# The whole suite again pinned to the scalar reference kernels
# (DESIGN.md §15). The SIMD backend is bit-identical by contract, so
# every test must pass under either backend; running both catches a
# kernel that drifts from its scalar twin anywhere the proptests'
# input distribution misses.
echo "==> CDSGD_FORCE_SCALAR=1 cargo test -q --workspace"
run_tests env CDSGD_FORCE_SCALAR=1 cargo test -q --workspace

# The profile the benchmark measures. Optimization decides how LLVM
# orders, fuses and vectorizes float code, so a kernel can match its
# scalar twin in debug and drift in release (the striped `dot` did, on
# NaN payloads): the identity suites and the pinned-hash runs again,
# optimized — the ring and the wire path included, which stream each
# key from inside BP like the rest, and the real `psd`/`worker` processes,
# whose bulk frames land straight from the socket.
echo "==> cargo test --release -q -p cdsgd-tensor"
run_tests cargo test --release -q -p cdsgd-tensor
echo "==> cargo test --release -q --test strategy_equivalence --test kernel_parity --test topology_equivalence --test net_equivalence --test net_processes --test semantics"
run_tests cargo test --release -q --test strategy_equivalence --test kernel_parity \
    --test topology_equivalence --test net_equivalence --test net_processes --test semantics

# The release build once more with the host's full ISA enabled — the
# configuration benchmark numbers are quoted from — to catch
# target-feature-dependent compile errors the portable build skips.
echo "==> RUSTFLAGS='-C target-cpu=native' cargo build --release"
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native cargo build --release

# With one source per elementwise kernel, compiler flags are the only
# thing that can split an AVX2 body from its scalar reference: both are
# compiled again here with the host's vector widths and instructions, so
# the identity suites and the backend-parity hash run in that build too.
echo "==> RUSTFLAGS='-C target-cpu=native' cargo test --release -q: kernel_identity, kernel_parity"
run_tests env RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test --release -q -p cdsgd-tensor --test kernel_identity
run_tests env RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test --release -q --test kernel_parity

# The benchmark package (benchmark/, BENCHMARK.json) is its own
# workspace, so the passes above never reach it: its unit tests and the
# `--quick` smoke that checks the emitted metric names and units against
# BENCHMARK.json run here. Schema drift fails; timings do not.
echo "==> cargo test -q --offline --manifest-path benchmark/Cargo.toml"
run_tests cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The committed baseline (BENCH_baseline.json: `benchmark all --repeats
# 10`, host block included) compared against itself: `compare` exits 1
# when a workload or end-to-end metric BENCHMARK.json names is missing
# from a file, so schema drift fails here instead of rotting the
# trajectory's first point. No timing is judged.
echo "==> benchmark compare BENCH_baseline.json BENCH_baseline.json"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    compare BENCH_baseline.json BENCH_baseline.json

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Every target — tests, benches and bins included — not just the libraries.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI OK"
