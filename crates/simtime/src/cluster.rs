//! Hardware specifications of the simulated clusters.
//!
//! Per-model GPU throughput is *empirical* (public fp32 benchmark numbers
//! at batch 32), not derived from peak FLOPs — sustained efficiency varies
//! wildly across architectures (cuDNN conv kernels vs. giant FC GEMMs),
//! and the paper's who-wins structure depends on exactly that ratio of
//! compute to communication. See `zoo::ModelSpec::throughput`.

use serde::{Deserialize, Serialize};

/// GPU generations used in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuKind {
    /// Tesla K80 (one GK210 die), the paper's "limited computing power"
    /// cluster: computation tends to be the bottleneck.
    K80,
    /// Tesla V100: compute is fast, so communication dominates.
    V100,
}

impl GpuKind {
    /// Sustained gradient-encode throughput (bytes/s) for the 2-bit
    /// quantization kernel's byte-proportional part.
    pub fn encode_throughput(self) -> f64 {
        match self {
            GpuKind::K80 => 6.0e9,
            GpuKind::V100 => 15.0e9,
        }
    }

    /// Fixed per-tensor launch/setup overhead of the 2-bit encode path.
    /// For small-tensor models (ResNet-20's ~65 keys) this fixed part,
    /// not the byte rate, is most of the paper's δ — Fig. 5 shows visible
    /// per-layer quantization bars while the whole iteration is ~20 ms,
    /// which bounds the per-key cost to the ~100 µs scale.
    pub fn quant_launch_overhead(self) -> f64 {
        match self {
            GpuKind::K80 => 1.0e-4,
            GpuKind::V100 => 5.0e-5,
        }
    }

    /// Effective device memory bandwidth (bytes/s) used for the local
    /// weight-update op in OD-SGD/CD-SGD (read grad + read/write weights).
    pub fn mem_bandwidth(self) -> f64 {
        match self {
            GpuKind::K80 => 1.4e11,
            GpuKind::V100 => 6.0e11,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GpuKind::K80 => "K80",
            GpuKind::V100 => "V100",
        }
    }
}

/// A homogeneous cluster: `nodes` machines, `gpus_per_node` workers each,
/// one NIC per node shared by its workers.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// GPU generation of every worker.
    pub gpu: GpuKind,
    /// Number of machines.
    pub nodes: usize,
    /// Workers (GPU dies) per machine.
    pub gpus_per_node: usize,
    /// NIC line rate in bits per second (e.g. 56 Gbps InfiniBand).
    pub link_bandwidth_bps: f64,
    /// One-way per-message overhead in seconds. Dominated by the PS
    /// software stack (per-key request handling), not the wire: ~100 µs,
    /// which is why many-small-key models pay a startup cost per layer
    /// (the LAGS-SGD critique the paper cites).
    pub latency_s: f64,
}

impl ClusterSpec {
    /// The paper's K80 cluster: 4 nodes × 2 dual-GPU K80 (4 dies),
    /// 56 Gbps InfiniBand.
    pub fn k80_cluster() -> Self {
        Self {
            gpu: GpuKind::K80,
            nodes: 4,
            gpus_per_node: 4,
            link_bandwidth_bps: 56.0e9,
            latency_s: 1.0e-4,
        }
    }

    /// The paper's V100 cluster: 4 nodes × 4 V100, 56 Gbps InfiniBand.
    pub fn v100_cluster() -> Self {
        Self {
            gpu: GpuKind::V100,
            nodes: 4,
            gpus_per_node: 4,
            link_bandwidth_bps: 56.0e9,
            latency_s: 1.0e-4,
        }
    }

    /// A low-bandwidth variant (the paper's future-work setting and its
    /// intro's 1 Gbps Ethernet example).
    pub fn with_bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.link_bandwidth_bps = gbps * 1e9;
        self
    }

    /// Use `n` worker nodes with one GPU each (the paper's M=2 / M=4
    /// convergence-experiment configuration).
    pub fn with_single_gpu_nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self.gpus_per_node = 1;
        self
    }

    /// Total worker count N.
    pub fn num_workers(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Effective per-worker bandwidth in bytes/s: the node NIC is shared
    /// by its co-located workers.
    pub fn worker_bandwidth(&self) -> f64 {
        self.link_bandwidth_bps / 8.0 / self.gpus_per_node as f64
    }

    /// Time for the cluster to complete one push/pull round in which each
    /// worker sends `wire_bytes` to the (node-sharded) servers and
    /// receives `pull_bytes` back.
    ///
    /// PS communication model per [Shi et al. 2020; Xu et al. 2019] with
    /// two physical refinements: server shards are co-located one per
    /// node, so only a `(nodes−1)/nodes` fraction of each worker's bytes
    /// crosses the NIC; and InfiniBand is **full duplex**, so the wall
    /// time is set by the larger direction through the node's NIC, not
    /// the sum.
    pub fn comm_time(&self, wire_bytes: f64, pull_bytes: f64) -> f64 {
        let frac = if self.nodes > 1 {
            (self.nodes as f64 - 1.0) / self.nodes as f64
        } else {
            0.0
        };
        let node_bytes = self.gpus_per_node as f64 * frac * wire_bytes.max(pull_bytes);
        2.0 * self.latency_s + node_bytes / (self.link_bandwidth_bps / 8.0)
    }

    /// Time for a ring allreduce of a `bytes`-sized vector across all N
    /// workers (the `--topology ring` collective, DESIGN.md §16).
    ///
    /// The classic α–β model [Thakur et al. 2005]: 2(N−1) pipeline steps,
    /// each paying one hop latency, and every member sending exactly
    /// 2(N−1)/N of the vector in total — the bandwidth-optimal volume.
    /// Ring time is latency-bound for small vectors (2(N−1) serial hops)
    /// and bandwidth-optimal for large ones.
    pub fn ring_allreduce_time(&self, bytes: f64) -> f64 {
        let n = self.num_workers() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        2.0 * (n - 1.0) * self.latency_s + 2.0 * (n - 1.0) / n * bytes / self.worker_bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shapes() {
        let k80 = ClusterSpec::k80_cluster();
        assert_eq!(k80.num_workers(), 16);
        let v100 = ClusterSpec::v100_cluster();
        assert_eq!(v100.num_workers(), 16);
        assert!(v100.gpu.encode_throughput() > k80.gpu.encode_throughput());
    }

    #[test]
    fn worker_bandwidth_shares_the_nic() {
        let c = ClusterSpec::k80_cluster();
        assert!((c.worker_bandwidth() - 56.0e9 / 8.0 / 4.0).abs() < 1.0);
    }

    #[test]
    fn comm_time_scales_with_bytes_and_bandwidth() {
        let c = ClusterSpec::v100_cluster();
        // Large payloads so per-message overhead is negligible.
        let t1 = c.comm_time(1e8, 1e8);
        let t2 = c.comm_time(2e8, 2e8);
        assert!(t2 > t1 * 1.8 && t2 < t1 * 2.2);
        let slow = c.with_bandwidth_gbps(1.0);
        assert!(slow.comm_time(1e8, 1e8) > t1 * 30.0);
    }

    #[test]
    fn full_duplex_charges_the_larger_direction() {
        let c = ClusterSpec::v100_cluster();
        let symmetric = c.comm_time(1e8, 1e8);
        let push_only = c.comm_time(1e8, 0.0);
        assert!(
            (symmetric - push_only).abs() < 1e-9,
            "pull rides the other direction"
        );
        // Compressing the push below the pull size stops helping.
        let compressed = c.comm_time(1e8 / 16.0, 1e8);
        assert!((compressed - symmetric).abs() < 1e-9);
    }

    #[test]
    fn single_worker_has_no_offnode_traffic() {
        let c = ClusterSpec::k80_cluster().with_single_gpu_nodes(1);
        let t = c.comm_time(1e9, 1e9);
        assert!(t < 1e-3, "only per-message overhead expected, got {t}");
    }

    #[test]
    fn convergence_config_single_gpu_nodes() {
        let c = ClusterSpec::k80_cluster().with_single_gpu_nodes(2);
        assert_eq!(c.num_workers(), 2);
        assert!((c.worker_bandwidth() - 7e9).abs() < 1.0);
    }

    #[test]
    fn ring_allreduce_is_bandwidth_optimal_for_large_vectors() {
        let c = ClusterSpec::k80_cluster().with_single_gpu_nodes(8);
        let n = 8.0;
        let bytes = 1e9;
        // Bandwidth term dominates: time → 2(N−1)/N · bytes / bw.
        let ideal = 2.0 * (n - 1.0) / n * bytes / c.worker_bandwidth();
        let t = c.ring_allreduce_time(bytes);
        assert!(t > ideal && t < ideal * 1.01, "t={t} ideal={ideal}");
    }

    #[test]
    fn degenerate_allreduce_worlds() {
        let c = ClusterSpec::k80_cluster().with_single_gpu_nodes(1);
        assert_eq!(c.ring_allreduce_time(1e9), 0.0);
    }
}
