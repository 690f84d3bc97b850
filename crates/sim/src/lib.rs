//! Discrete-event simulation engine for the ElasticRec reproduction.
//!
//! The paper evaluates ElasticRec on a physical Kubernetes cluster; this
//! reproduction replaces wall-clock execution with a deterministic
//! discrete-event simulation. The engine is intentionally small: a virtual
//! clock ([`SimTime`]), a priority [`EventQueue`] generic over the user's
//! event type, and a deterministic [`SimRng`]. Higher layers (`er-cluster`,
//! `elasticrec`) define their own event enums and drive the loop.
//!
//! # Examples
//!
//! ```
//! use er_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     QueryArrival(u32),
//!     ScaleCheck,
//! }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2.0), Ev::ScaleCheck);
//! q.schedule(SimTime::from_secs(1.0), Ev::QueryArrival(7));
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_secs(1.0));
//! assert_eq!(ev, Ev::QueryArrival(7));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub)]

mod queue;
mod rng;
mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::SimTime;
