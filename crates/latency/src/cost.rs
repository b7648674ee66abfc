//! FLOP and byte accounting for the split backbone.

use ensembler::Precision;
use ensembler_nn::models::ResNetConfig;

/// Cost of a single layer: floating-point operations (multiply-accumulates
/// counted as two FLOPs) and the size of its output activation in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCost {
    /// Floating-point operations for one sample.
    pub flops: u64,
    /// Output activation size for one sample, in bytes (f32).
    pub output_bytes: u64,
}

impl LayerCost {
    /// Cost of a `k x k` convolution producing `out_c x out_h x out_w` from
    /// `in_c` channels.
    pub fn conv2d(in_c: usize, out_c: usize, kernel: usize, out_h: usize, out_w: usize) -> Self {
        let macs = (in_c * kernel * kernel * out_c * out_h * out_w) as u64;
        Self {
            flops: 2 * macs,
            output_bytes: (4 * out_c * out_h * out_w) as u64,
        }
    }

    /// Cost of a fully-connected layer.
    pub fn linear(in_features: usize, out_features: usize) -> Self {
        Self {
            flops: 2 * (in_features * out_features) as u64,
            output_bytes: (4 * out_features) as u64,
        }
    }

    /// Cost of a batch-norm + activation pass over a feature map (elementwise).
    pub fn elementwise(channels: usize, h: usize, w: usize) -> Self {
        Self {
            flops: (4 * channels * h * w) as u64,
            output_bytes: (4 * channels * h * w) as u64,
        }
    }
}

/// Framing overhead of a length-framed tensor wire protocol, in bytes.
///
/// The analytic model historically counted only raw `f32` payload bytes
/// (`upload_bytes`, `return_bytes`). With the networked serving path in
/// `crates/serve` those terms became measurable, and real frames carry
/// protocol overhead on top: a frame header and checksum trailer, a
/// per-tensor header (magic + rank + dimensions) and, for tensor lists, a
/// count word plus per-tensor length prefixes.
///
/// `ensembler-serve` exports its actual layout as a `WireOverhead` constant
/// and a test over there asserts that [`NetworkCost::request_frame_bytes`] /
/// [`NetworkCost::response_frame_bytes`] computed from this model equal the
/// byte length of genuinely encoded frames, so the analytic model cannot
/// silently drift from the implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOverhead {
    /// Fixed bytes per frame: header plus checksum trailer.
    pub frame_bytes: u64,
    /// Fixed bytes per encoded tensor: magic word plus rank word.
    pub tensor_base_bytes: u64,
    /// Bytes per shape dimension of an encoded tensor.
    pub per_dim_bytes: u64,
    /// Bytes for the count word preceding a list of tensors.
    pub list_header_bytes: u64,
    /// Bytes for the length prefix in front of each tensor in a list.
    pub per_tensor_prefix_bytes: u64,
    /// Bytes for each per-sample quantization scale carried by a protocol-v2
    /// quantized tensor (one `f32` per batch item).
    pub per_scale_bytes: u64,
    /// Bytes for the length prefix in front of every wire string (model
    /// names, pipeline labels, error messages — protocol v3 handshakes carry
    /// two of them).
    pub per_string_bytes: u64,
    /// Bytes for the `lo`/`hi` body-range words carried by a protocol-v4
    /// sub-range request (one `u32` each) — what a shard router spends per
    /// request to name the slice a worker should evaluate.
    pub range_header_bytes: u64,
    /// Bytes for the request-id word carried in the extended header of a
    /// *tagged* frame (one big-endian `u64`) — the entire per-frame wire
    /// cost of pipelined connection multiplexing. Every request and response
    /// frame is tagged; only the handshake frames spend zero of these.
    pub request_id_bytes: u64,
}

impl WireOverhead {
    /// Exact byte length of a `Hello` frame: the fixed frame overhead, the
    /// two-byte version offer and — for a protocol-v3 hello that requests a
    /// model by name — a length-prefixed string of `model_name_bytes` bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use ensembler_latency::WireOverhead;
    ///
    /// let overhead = WireOverhead {
    ///     frame_bytes: 16,
    ///     tensor_base_bytes: 8,
    ///     per_dim_bytes: 4,
    ///     list_header_bytes: 4,
    ///     per_tensor_prefix_bytes: 4,
    ///     per_scale_bytes: 4,
    ///     per_string_bytes: 4,
    ///     range_header_bytes: 8,
    ///     request_id_bytes: 8,
    /// };
    /// // A legacy hello spends only the version word on top of the frame.
    /// assert_eq!(overhead.hello_frame_bytes(None), 16 + 2);
    /// // Requesting the model "alpha" adds a 4-byte prefix + 5 name bytes.
    /// assert_eq!(overhead.hello_frame_bytes(Some(5)), 16 + 2 + 4 + 5);
    /// ```
    pub fn hello_frame_bytes(&self, model_name_bytes: Option<u64>) -> u64 {
        self.frame_bytes + 2 + model_name_bytes.map_or(0, |name| self.per_string_bytes + name)
    }

    /// Exact byte length of a `HelloAck` frame: the fixed frame overhead, the
    /// two-byte negotiated version, the length-prefixed pipeline label, the
    /// `N` and `P` words (4 bytes each) and — when the server echoes the
    /// resolved model name to a v3 client — one more length-prefixed string.
    ///
    /// # Examples
    ///
    /// ```
    /// use ensembler_latency::WireOverhead;
    ///
    /// let overhead = WireOverhead {
    ///     frame_bytes: 16,
    ///     tensor_base_bytes: 8,
    ///     per_dim_bytes: 4,
    ///     list_header_bytes: 4,
    ///     per_tensor_prefix_bytes: 4,
    ///     per_scale_bytes: 4,
    ///     per_string_bytes: 4,
    ///     range_header_bytes: 8,
    ///     request_id_bytes: 8,
    /// };
    /// // "Ensembler" is 9 bytes; N and P spend 4 bytes each.
    /// assert_eq!(overhead.hello_ack_frame_bytes(9, None), 16 + 2 + 4 + 9 + 8);
    /// assert_eq!(
    ///     overhead.hello_ack_frame_bytes(9, Some(5)),
    ///     16 + 2 + 4 + 9 + 8 + 4 + 5
    /// );
    /// ```
    pub fn hello_ack_frame_bytes(&self, label_bytes: u64, model_name_bytes: Option<u64>) -> u64 {
        self.frame_bytes
            + 2
            + self.per_string_bytes
            + label_bytes
            + 8
            + model_name_bytes.map_or(0, |name| self.per_string_bytes + name)
    }
}

/// Per-partition cost of the split backbone for a single sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkCost {
    /// FLOPs executed by the client head (`M_c,h`).
    pub head_flops: u64,
    /// FLOPs executed by one server body (`M_s^i`).
    pub body_flops: u64,
    /// FLOPs executed by the client tail (`M_c,t`) for a single-network
    /// feature vector.
    pub tail_flops: u64,
    /// Bytes of the intermediate feature map the client uploads.
    pub upload_bytes: u64,
    /// Bytes of the feature vector one server network returns.
    pub return_bytes: u64,
}

impl NetworkCost {
    /// Total client FLOPs (head plus tail) for a single network.
    pub fn client_flops(&self) -> u64 {
        self.head_flops + self.tail_flops
    }

    /// Exact byte length of the request frame that uploads the transmitted
    /// features of `batch` images at `precision`, to every body or (`ranged`)
    /// to the slice a shard router names.
    ///
    /// The upload is one rank-4 `[B, C, H, W]` tensor: the fixed frame
    /// overhead and the request id, one tensor header with four dimension
    /// words, and `batch` copies of the per-sample payload — `upload_bytes`
    /// in `f32`; in int8 one byte per element (a quarter of it) plus one
    /// scale word. A sub-range request adds the `lo..hi` words
    /// ([`WireOverhead::range_header_bytes`]): the entire per-request wire
    /// cost of sharding the ensemble, since a worker's response is just
    /// [`NetworkCost::response_frame_bytes`] for its `hi - lo` maps.
    pub fn request_frame_bytes(
        &self,
        batch: u64,
        precision: Precision,
        ranged: bool,
        overhead: &WireOverhead,
    ) -> u64 {
        overhead.frame_bytes
            + overhead.request_id_bytes
            + if ranged {
                overhead.range_header_bytes
            } else {
                0
            }
            + overhead.tensor_base_bytes
            + 4 * overhead.per_dim_bytes
            + batch * sample_bytes(self.upload_bytes, precision, overhead)
    }

    /// Exact byte length of the response frame a server sends back with
    /// `maps` per-network feature maps for a batch of `batch` images at
    /// `precision`.
    ///
    /// The response is a list of `maps` rank-2 `[B, F]` tensors: fixed frame
    /// overhead, the request id, a list count word, and per tensor a length
    /// prefix, a tensor header with two dimension words and `batch` copies of
    /// the per-sample payload (`return_bytes` in `f32`, roughly a quarter of
    /// it in int8 — the point of the quantized encoding).
    pub fn response_frame_bytes(
        &self,
        batch: u64,
        maps: u64,
        precision: Precision,
        overhead: &WireOverhead,
    ) -> u64 {
        overhead.frame_bytes
            + overhead.request_id_bytes
            + overhead.list_header_bytes
            + maps
                * (overhead.per_tensor_prefix_bytes
                    + overhead.tensor_base_bytes
                    + 2 * overhead.per_dim_bytes
                    + batch * sample_bytes(self.return_bytes, precision, overhead))
    }
}

/// Wire bytes of one sample whose `f32` payload is `f32_bytes`: that, or one
/// byte per element plus the sample's scale word.
fn sample_bytes(f32_bytes: u64, precision: Precision, overhead: &WireOverhead) -> u64 {
    match precision {
        Precision::F32 => f32_bytes,
        Precision::Int8 => overhead.per_scale_bytes + f32_bytes / 4,
    }
}

/// Computes the per-sample split costs of a backbone configuration.
///
/// The accounting walks the same structure `ensembler-nn` builds: a stem
/// convolution (plus optional pool) on the client, residual stages plus
/// global pooling on the server, and a linear classifier back on the client.
pub fn network_cost(config: &ResNetConfig) -> NetworkCost {
    let head_shape = config.head_output_shape();
    let (head_c, head_h, head_w) = (head_shape[0], head_shape[1], head_shape[2]);

    // Client head: stem conv at full image resolution (+ pooling is free by
    // comparison and ignored).
    let stem = LayerCost::conv2d(
        config.input_channels,
        config.stem_channels,
        3,
        config.image_size,
        config.image_size,
    );
    let head_flops = stem.flops;

    // Server body: residual stages.
    let mut body_flops = 0u64;
    let mut in_c = config.stem_channels;
    let mut h = head_h;
    let mut w = head_w;
    for (stage_idx, &out_c) in config.stage_channels.iter().enumerate() {
        for block_idx in 0..config.blocks_per_stage {
            let stride = if stage_idx > 0 && block_idx == 0 {
                2
            } else {
                1
            };
            if stride == 2 {
                h /= 2;
                w /= 2;
            }
            let conv1 = LayerCost::conv2d(in_c, out_c, 3, h, w);
            let conv2 = LayerCost::conv2d(out_c, out_c, 3, h, w);
            let bn_relu = LayerCost::elementwise(out_c, h, w);
            body_flops += conv1.flops + conv2.flops + 2 * bn_relu.flops;
            if stride == 2 || in_c != out_c {
                body_flops += LayerCost::conv2d(in_c, out_c, 1, h, w).flops;
            }
            in_c = out_c;
        }
    }
    // Global average pooling.
    body_flops += (in_c * h * w) as u64;

    // Client tail: linear classifier on one network's features.
    let tail = LayerCost::linear(config.body_output_features(), config.num_classes);

    NetworkCost {
        head_flops,
        body_flops,
        tail_flops: tail.flops,
        upload_bytes: (4 * head_c * head_h * head_w) as u64,
        return_bytes: (4 * config.body_output_features()) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_cost_matches_hand_computation() {
        // 3 -> 64 channels, 3x3, 32x32 output: 64*3*9*32*32 MACs.
        let cost = LayerCost::conv2d(3, 64, 3, 32, 32);
        assert_eq!(cost.flops, 2 * 64 * 3 * 9 * 32 * 32);
        assert_eq!(cost.output_bytes, 4 * 64 * 32 * 32);
    }

    #[test]
    fn linear_and_elementwise_costs() {
        assert_eq!(LayerCost::linear(512, 10).flops, 2 * 5120);
        assert_eq!(LayerCost::elementwise(16, 8, 8).output_bytes, 4 * 16 * 64);
    }

    #[test]
    fn paper_resnet18_upload_matches_the_reported_feature_size() {
        // The paper states the CIFAR-10 intermediate feature map is
        // [64 x 16 x 16]: 64 KiB of f32 per image.
        let config = ResNetConfig::paper_resnet18(10, 32, true);
        let cost = network_cost(&config);
        assert_eq!(cost.upload_bytes, 4 * 64 * 16 * 16);
        assert_eq!(cost.return_bytes, 4 * 512);
    }

    #[test]
    fn server_dominates_client_compute() {
        // The whole point of collaborative inference: the server body carries
        // far more FLOPs than the single client convolution.
        let config = ResNetConfig::paper_resnet18(10, 32, true);
        let cost = network_cost(&config);
        assert!(cost.body_flops > 10 * cost.head_flops);
        assert!(cost.client_flops() < cost.body_flops);
    }

    #[test]
    fn removing_the_stem_pool_increases_upload_and_body_cost() {
        let pooled = network_cost(&ResNetConfig::paper_resnet18(100, 32, true));
        let unpooled = network_cost(&ResNetConfig::paper_resnet18(100, 32, false));
        assert_eq!(unpooled.upload_bytes, 4 * pooled.upload_bytes);
        assert!(unpooled.body_flops > pooled.body_flops);
    }

    #[test]
    fn frame_byte_model_adds_overhead_on_top_of_payload() {
        let cost = network_cost(&ResNetConfig::paper_resnet18(10, 32, true));
        let overhead = WireOverhead {
            frame_bytes: 16,
            tensor_base_bytes: 8,
            per_dim_bytes: 4,
            list_header_bytes: 4,
            per_tensor_prefix_bytes: 4,
            per_scale_bytes: 4,
            per_string_bytes: 4,
            range_header_bytes: 8,
            request_id_bytes: 8,
        };
        assert_eq!(
            cost.request_frame_bytes(2, Precision::F32, false, &overhead),
            16 + 8 + 8 + 4 * 4 + 2 * cost.upload_bytes
        );
        assert_eq!(
            cost.response_frame_bytes(2, 3, Precision::F32, &overhead),
            16 + 8 + 4 + 3 * (4 + 8 + 2 * 4 + 2 * cost.return_bytes)
        );
    }

    #[test]
    fn quantized_frame_model_spends_one_byte_per_element_plus_scales() {
        let cost = network_cost(&ResNetConfig::paper_resnet18(10, 32, true));
        let overhead = WireOverhead {
            frame_bytes: 16,
            tensor_base_bytes: 8,
            per_dim_bytes: 4,
            list_header_bytes: 4,
            per_tensor_prefix_bytes: 4,
            per_scale_bytes: 4,
            per_string_bytes: 4,
            range_header_bytes: 8,
            request_id_bytes: 8,
        };
        assert_eq!(
            cost.request_frame_bytes(2, Precision::Int8, false, &overhead),
            16 + 8 + 8 + 4 * 4 + 2 * 4 + 2 * (cost.upload_bytes / 4)
        );
        assert_eq!(
            cost.response_frame_bytes(2, 3, Precision::Int8, &overhead),
            16 + 8 + 4 + 3 * (4 + 8 + 2 * 4 + 2 * 4 + 2 * (cost.return_bytes / 4))
        );
        // The quantized response is roughly a quarter of the f32 one.
        let f32_bytes = cost.response_frame_bytes(8, 4, Precision::F32, &overhead) as f64;
        let q_bytes = cost.response_frame_bytes(8, 4, Precision::Int8, &overhead) as f64;
        assert!(q_bytes < 0.3 * f32_bytes, "{q_bytes} vs {f32_bytes}");
    }

    #[test]
    fn range_requests_cost_one_range_header_on_top_of_the_upload() {
        let cost = network_cost(&ResNetConfig::paper_resnet18(10, 32, true));
        let overhead = WireOverhead {
            frame_bytes: 16,
            tensor_base_bytes: 8,
            per_dim_bytes: 4,
            list_header_bytes: 4,
            per_tensor_prefix_bytes: 4,
            per_scale_bytes: 4,
            per_string_bytes: 4,
            range_header_bytes: 8,
            request_id_bytes: 8,
        };
        for precision in [Precision::F32, Precision::Int8] {
            assert_eq!(
                cost.request_frame_bytes(2, precision, true, &overhead),
                cost.request_frame_bytes(2, precision, false, &overhead) + 8
            );
        }
    }

    #[test]
    fn micro_config_costs_scale_down() {
        let micro = network_cost(&ResNetConfig::cifar10_like());
        let paper = network_cost(&ResNetConfig::paper_resnet18(10, 32, true));
        assert!(micro.body_flops < paper.body_flops / 100);
    }
}
