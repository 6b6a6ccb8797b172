//! The experiment implementations, one module per paper artifact. Each
//! owns a `regenerate` that prints its tables, writes its CSVs under
//! `results/` and runs its checks; [`rms`] is the loss-rate sweep
//! Figures 2 and 5 share.

pub mod ablation;
pub mod churn;
pub mod fig02;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig09d;
pub mod fig_quantiles;
pub mod labdata_sum;
pub mod rms;
pub mod stream_windows;
pub mod tab01;
pub mod tab02;
