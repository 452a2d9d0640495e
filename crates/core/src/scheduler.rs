//! Continuous-batching admission queue in front of the runtime.
//!
//! [`ModelRuntime::submit`] enqueues a request instead of executing it
//! inline. Pending requests for the same `(model, seed, backend)` —
//! the unit of coalescing, since weights derive from the seed and a
//! widened launch runs every slot on one backend — are drained
//! together and executed as **one widened fused launch** per step (see
//! [`BatchedPlan`]), governed by a [`BatchPolicy`]:
//!
//! * a batch launches as soon as [`BatchPolicy::max_batch`] requests
//!   are pending, or once the oldest pending request has waited
//!   [`BatchPolicy::max_wait`] (wall time) — latency is bounded even
//!   at low arrival rates;
//! * admission is bounded by [`BatchPolicy::queue_cap`] per model; a
//!   full queue rejects with [`ExecError::Overloaded`] *at submit
//!   time* instead of queueing unboundedly;
//! * a per-request deadline ([`ModelRuntime::submit_with_deadline`])
//!   expires with [`ExecError::DeadlineExceeded`] when the batch is
//!   drained, *before* any execution is wasted on it.
//!
//! **Leader/follower draining.** The first thread to enqueue into an
//! idle queue becomes its leader: it waits out the batching window,
//! drains up to `max_batch` requests, executes them as one batch, fills
//! every request's result slot, and repeats until the queue is empty
//! (only then does it resign, under the lock — a non-empty queue always
//! has a leader, so no request can be stranded). Every other submitter
//! just parks on its own result slot. There are no background threads:
//! batching borrows the callers themselves.
//!
//! **Queueing on the virtual clock.** Reported latency is
//! enqueue-to-completion on the same virtual clock the tuner charges:
//! each model keeps a frontier (total virtual span assigned to its
//! batches so far); a request arriving at frontier `a` and completing
//! in a batch that ends at frontier `c` has latency `c − a` — it pays
//! for every earlier batch of the same model plus its own, so the
//! p50/p95 in [`RuntimeStats`](crate::RuntimeStats) mean something
//! under load instead of repeating the unloaded per-request constant.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
// The workspace's `parking_lot` is an offline std wrapper whose guards
// *are* std guards, so std's `Condvar` composes with its `Mutex`.
use std::sync::Arc;
use std::sync::Condvar;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use mcfuser_sim::ExecBackend;

use crate::batch::BatchedPlan;
use crate::plan::{ExecError, InputSet, Outputs, RunOptions};
use crate::runtime::ModelRuntime;

/// Knobs governing the admission queue. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Most requests coalesced into one widened launch.
    pub max_batch: usize,
    /// Longest (wall-clock) time the oldest pending request waits for
    /// its batch to fill before the leader drains anyway.
    pub max_wait: Duration,
    /// Most requests admitted per model before
    /// [`ExecError::Overloaded`] rejections kick in.
    pub queue_cap: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 64,
        }
    }
}

/// One parked submitter's result slot.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Result<Outputs, ExecError>>>,
    done: Condvar,
}

impl Slot {
    fn fill(&self, r: Result<Outputs, ExecError>) {
        *self.result.lock() = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Outputs, ExecError> {
        let mut guard = self.result.lock();
        while guard.is_none() {
            guard = self.done.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        guard.take().expect("slot filled exactly once")
    }
}

/// One admitted, not-yet-executed request.
struct Pending {
    inputs: InputSet,
    opts: RunOptions,
    deadline: Option<Duration>,
    enqueued: Instant,
    /// The model's virtual frontier at admission.
    arrival_vt: f64,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct PlanQueue {
    requests: VecDeque<Pending>,
    /// Whether some submitter is currently leading this queue.
    leader: bool,
}

#[derive(Default)]
struct SchedState {
    /// Pending requests per `(model, seed, backend)` coalescing key —
    /// a widened launch executes every slot on one backend, so requests
    /// pinning different backends must not share a batch.
    queues: FxHashMap<(String, u64, Option<ExecBackend>), PlanQueue>,
    /// Admitted-but-unfinished requests per model (the `queue_cap`
    /// denominator).
    pending: FxHashMap<String, usize>,
    /// Per-model virtual clock: total span assigned to drained batches.
    frontier: FxHashMap<String, f64>,
}

/// The runtime's batching state: queues, the virtual frontier, and the
/// admission counters surfaced through
/// [`RuntimeStats`](crate::RuntimeStats).
pub(crate) struct Scheduler {
    pub(crate) policy: BatchPolicy,
    state: Mutex<SchedState>,
    /// Wakes waiting leaders when a request is enqueued.
    work: Condvar,
    rejected: AtomicU64,
    expired: AtomicU64,
    /// Drained-batch width histogram (width → launches).
    batch_sizes: Mutex<FxHashMap<usize, u64>>,
}

impl Scheduler {
    pub(crate) fn with_policy(policy: BatchPolicy) -> Self {
        Scheduler {
            policy,
            state: Mutex::new(SchedState::default()),
            work: Condvar::new(),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            batch_sizes: Mutex::new(FxHashMap::default()),
        }
    }

    /// `(queue_depth, rejected, expired, batch-size histogram)`.
    pub(crate) fn snapshot(&self) -> (u64, u64, u64, Vec<(usize, u64)>) {
        let depth = self.state.lock().pending.values().map(|&c| c as u64).sum();
        let mut hist: Vec<(usize, u64)> = self
            .batch_sizes
            .lock()
            .iter()
            .map(|(&k, &n)| (k, n))
            .collect();
        hist.sort_unstable();
        (
            depth,
            self.rejected.load(Ordering::Relaxed),
            self.expired.load(Ordering::Relaxed),
            hist,
        )
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::with_policy(BatchPolicy::default())
    }
}

impl ModelRuntime {
    /// The admission policy governing [`ModelRuntime::submit`].
    pub fn batch_policy(&self) -> &BatchPolicy {
        &self.sched.policy
    }

    /// Serve one request through the batching admission queue: the
    /// request coalesces with other pending same-`(model, seed)`
    /// requests into one widened fused launch. Blocks until the
    /// request's batch completes; outputs are bit-identical to
    /// [`ModelRuntime::infer`] with the same arguments.
    ///
    /// Returns [`ExecError::Overloaded`] without queueing when the
    /// model already has [`BatchPolicy::queue_cap`] requests admitted.
    pub fn submit(
        &self,
        model: &str,
        inputs: InputSet,
        opts: RunOptions,
    ) -> Result<Outputs, ExecError> {
        self.submit_inner(model, inputs, opts, None)
    }

    /// [`ModelRuntime::submit`] with a per-request deadline, measured
    /// (wall clock) from admission: a request still queued when its
    /// batch is drained past the deadline completes with
    /// [`ExecError::DeadlineExceeded`] instead of being executed.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        inputs: InputSet,
        opts: RunOptions,
        deadline: Duration,
    ) -> Result<Outputs, ExecError> {
        self.submit_inner(model, inputs, opts, Some(deadline))
    }

    fn submit_inner(
        &self,
        model: &str,
        inputs: InputSet,
        opts: RunOptions,
        deadline: Option<Duration>,
    ) -> Result<Outputs, ExecError> {
        let Some(batched) = self.batched_plan(model) else {
            self.count_failure();
            return Err(ExecError::UnknownModel {
                name: model.to_string(),
            });
        };
        // Admission-time validation: a malformed request is rejected
        // here with its structured error instead of poisoning a whole
        // batch at drain time. (Binding is Cow-style — no clones.)
        if let Err(e) = batched.plan().bind_inputs(&inputs) {
            self.count_failure();
            return Err(e);
        }

        let sched = &self.sched;
        let key = (model.to_string(), opts.seed, opts.backend);
        let slot = Arc::new(Slot::default());
        let is_leader;
        {
            let mut st = sched.state.lock();
            let pending = st.pending.entry(model.to_string()).or_insert(0);
            if *pending >= sched.policy.queue_cap {
                drop(st);
                sched.rejected.fetch_add(1, Ordering::Relaxed);
                self.count_failure();
                return Err(ExecError::Overloaded {
                    model: model.to_string(),
                    queue_cap: sched.policy.queue_cap,
                });
            }
            *pending += 1;
            let arrival_vt = st.frontier.get(model).copied().unwrap_or(0.0);
            let q = st.queues.entry(key.clone()).or_default();
            q.requests.push_back(Pending {
                inputs,
                opts,
                deadline,
                enqueued: Instant::now(),
                arrival_vt,
                slot: slot.clone(),
            });
            is_leader = !q.leader;
            if is_leader {
                q.leader = true;
            }
        }
        sched.work.notify_all();
        if is_leader {
            self.lead(&batched, &key);
        }
        slot.wait()
    }

    /// Drain and execute batches of `key`'s queue until it is empty
    /// (which necessarily includes the leader's own request). Resigning
    /// happens under the state lock, so a non-empty queue always has a
    /// leader.
    fn lead(&self, batched: &BatchedPlan, key: &(String, u64, Option<ExecBackend>)) {
        let sched = &self.sched;
        let model = &key.0;
        loop {
            let mut batch;
            let mut expired = Vec::new();
            let completion_vt;
            let batch_span;
            let batch_bytes;
            {
                let mut st = sched.state.lock();
                // Batching window: wait for a full batch or the oldest
                // request's window to lapse, whichever is first.
                loop {
                    let q = st.queues.get_mut(key).expect("leader's queue exists");
                    if q.requests.is_empty() {
                        q.leader = false;
                        return;
                    }
                    let len = q.requests.len();
                    let waited = q.requests.front().expect("non-empty").enqueued.elapsed();
                    if len >= sched.policy.max_batch || waited >= sched.policy.max_wait {
                        break;
                    }
                    let remaining = sched.policy.max_wait - waited;
                    let (guard, timeout) = sched
                        .work
                        .wait_timeout(st, remaining)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                let q = st.queues.get_mut(key).expect("leader's queue exists");
                let k = q.requests.len().min(sched.policy.max_batch);
                let drained: Vec<Pending> = q.requests.drain(..k).collect();
                if let Some(c) = st.pending.get_mut(model) {
                    *c -= k;
                }
                // Deadline triage before the batch is priced or
                // executed: expired requests never reach the device.
                let now = Instant::now();
                batch = Vec::with_capacity(drained.len());
                for p in drained {
                    let lapsed = p
                        .deadline
                        .is_some_and(|d| now.duration_since(p.enqueued) > d);
                    if lapsed {
                        expired.push(p);
                    } else {
                        batch.push(p);
                    }
                }
                // Advance the model's virtual frontier by the batch's
                // span while still under the lock, so later arrivals
                // observe it in their `arrival_vt`.
                if batch.is_empty() {
                    completion_vt = 0.0;
                    batch_span = 0.0;
                    batch_bytes = 0.0;
                } else {
                    let (span, bytes) = batched.batch_span(batch.len());
                    let frontier = st.frontier.entry(model.clone()).or_insert(0.0);
                    *frontier += span;
                    completion_vt = *frontier;
                    batch_span = span;
                    batch_bytes = bytes;
                }
            }
            for p in expired {
                sched.expired.fetch_add(1, Ordering::Relaxed);
                self.count_failure();
                let deadline = p.deadline.expect("only deadlined requests expire");
                p.slot.fill(Err(ExecError::DeadlineExceeded {
                    model: model.clone(),
                    deadline,
                }));
            }
            if batch.is_empty() {
                continue;
            }
            *sched.batch_sizes.lock().entry(batch.len()).or_insert(0) += 1;

            let refs: Vec<&InputSet> = batch.iter().map(|p| &p.inputs).collect();
            let widened = batched.widened(batch.len());
            let (result, _) = self.launch(
                model,
                batched.plan(),
                widened.as_deref(),
                &refs,
                batch[0].opts,
                batch_span,
            );
            match result {
                Ok(outs) => {
                    let per_request_bytes = batch_bytes / batch.len() as f64;
                    for (p, out) in batch.iter().zip(outs) {
                        // Wall latency is enqueue-to-completion — it
                        // includes the batching window and queueing, the
                        // honest number a client would measure.
                        let wall = p.enqueued.elapsed().as_secs_f64();
                        self.record_success(
                            model,
                            completion_vt - p.arrival_vt,
                            wall,
                            per_request_bytes,
                        );
                        p.slot.fill(Ok(out));
                    }
                }
                Err(e) => {
                    for p in &batch {
                        p.slot.fill(Err(e.clone()));
                    }
                }
            }
        }
    }
}
