//! Neural-network training substrate for the Sync-Switch reproduction.
//!
//! Implements, from scratch, everything the real-execution path of
//! Sync-Switch needs: layers with manual backpropagation, sequential and
//! residual models (structural stand-ins for the paper's ResNet family),
//! softmax cross-entropy loss, SGD with momentum, deterministic synthetic
//! datasets with data-parallel sharding, and evaluation metrics.
//!
//! Parameters and gradients can be flattened to `Vec<f32>` so the parameter
//! server in `sync-switch-ps` can shard and exchange them exactly like
//! TensorFlow exchanges variables with its PSs.
//!
//! # Example
//!
//! ```
//! use sync_switch_nn::{Dataset, Network, SgdMomentum};
//!
//! let data = Dataset::gaussian_blobs(4, 50, 8, 0.3, 1);
//! let mut net = Network::mlp(8, &[16], 4, 7);
//! let mut opt = SgdMomentum::new(net.param_count(), 0.1, 0.9);
//! let (x, y) = data.batch(&(0..32).collect::<Vec<_>>());
//! let before = net.loss(&x, &y);
//! for _ in 0..20 {
//!     let (_, grad) = net.loss_and_grad(&x, &y);
//!     let mut params = net.params_flat();
//!     opt.apply(&mut params, &grad);
//!     net.set_params_flat(&params);
//! }
//! assert!(net.loss(&x, &y) < before);
//! ```

pub mod conv;
pub mod data;
pub mod embedding;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optimizer;

pub use conv::{Conv1d, MaxPool1d};
pub use data::Dataset;
pub use embedding::Embedding;
pub use layer::{Dense, Layer, Relu, ResidualBlock};
pub use loss::SoftmaxCrossEntropy;
pub use metrics::accuracy;
pub use model::{GradBuffer, Network};
pub use optimizer::SgdMomentum;
pub use sync_switch_tensor::Tensor;
