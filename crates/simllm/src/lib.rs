#![warn(missing_docs)]
//! `simllm` — a deterministic behavioural simulator of large language
//! models, calibrated to the failure modes the IOAgent paper engineers
//! around.
//!
//! The paper's contribution is not an LLM: it is an orchestration layer
//! (pre-processing, retrieval grounding, pairwise merging, bias-cancelled
//! judging) that turns an *unreliable* language model into a trustworthy
//! diagnostician. Reproducing that contribution offline therefore requires
//! a model substrate whose unreliability is realistic and controllable:
//!
//! - **finite attention** with *lost-in-the-middle* truncation
//!   ([`context`]), so stuffing a whole Darshan trace into a prompt
//!   mechanically destroys mid-file information (the ION failure mode);
//! - **capability-gated expertise** ([`iokb`]): harder inferences (server
//!   imbalance, missing collectives) need stronger models, unless retrieval
//!   grounding lowers the bar (the RAG benefit);
//! - **misconceptions** that surface exactly when ungrounded (the paper's
//!   "1 MB stripe is optimal" example, Fig. 1);
//! - **hallucination** of plausible but unsupported findings;
//! - **merge-fidelity collapse** as more documents are merged at once
//!   (the reason tree-based pairwise merging exists, Fig. 6);
//! - **positional and name bias** in ranking (the reason the judge
//!   anonymises and rotates, Fig. 4).
//!
//! Everything is deterministic per (model, prompt, salt), so the entire
//! evaluation pipeline is reproducible bit-for-bit.

pub mod context;
pub mod evidence;
pub mod faults;
pub mod iokb;
pub mod profile;
pub mod quality;
pub mod reference;
pub mod report;
pub mod rng;
pub mod tasks;

pub use faults::{
    AttemptDraw, AttemptFault, CancelToken, FaultKind, FaultPlan, FaultSpec, LatencyProfile,
    LlmError, TailSpec,
};
pub use profile::{profile, profile_or_panic, ModelProfile, PROFILES};
pub use report::{extract_issues, Diagnosis};

use ioobserve::{Counter, FloatCounter, Histogram};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// The `llm.*` instruments every delivered completion records, resolved
/// from the global registry once instead of looked up by name per call.
/// Rare-path counters (faults, cancellations) stay looked up on use, so
/// they only appear in the registry once something actually faulted.
struct LlmMetrics {
    calls: Arc<Counter>,
    input_tokens: Arc<Counter>,
    output_tokens: Arc<Counter>,
    cost_usd: Arc<FloatCounter>,
    call_ns: Arc<Histogram>,
    attempts: Arc<Histogram>,
}

fn llm_metrics() -> &'static LlmMetrics {
    static HANDLES: OnceLock<LlmMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let m = ioobserve::metrics();
        LlmMetrics {
            calls: m.counter("llm.calls"),
            input_tokens: m.counter("llm.input_tokens"),
            output_tokens: m.counter("llm.output_tokens"),
            cost_usd: m.float_counter("llm.cost_usd"),
            call_ns: m.histogram("llm.call_ns"),
            attempts: m.histogram("llm.attempts"),
        }
    })
}

/// A completion request.
#[derive(Debug, Clone, Default)]
pub struct CompletionRequest {
    /// System prompt (instructions; attended first).
    pub system: String,
    /// User prompt (task + sections).
    pub user: String,
    /// Decorrelation salt (e.g. retry number, permutation index).
    pub salt: u64,
    /// Delivery attempt lane. Content draws ignore it (retries and
    /// hedges reproduce byte-identical text); latency and fault draws
    /// are keyed by it, so each attempt resolves independently.
    pub attempt: u32,
    /// Cooperative cancellation for this attempt's simulated latency
    /// (hedging: the losing duplicate is cancelled mid-sleep). The
    /// default token is never cancelled.
    pub cancel: CancelToken,
}

impl CompletionRequest {
    /// Convenience constructor.
    pub fn new(system: impl Into<String>, user: impl Into<String>) -> Self {
        CompletionRequest {
            system: system.into(),
            user: user.into(),
            salt: 0,
            attempt: 0,
            cancel: CancelToken::default(),
        }
    }

    /// With a specific salt.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// On a specific delivery-attempt lane.
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// With a caller-held cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// A completion result with usage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The model's output text.
    pub text: String,
    /// Input tokens (before attention).
    pub input_tokens: usize,
    /// Output tokens.
    pub output_tokens: usize,
    /// Whether input was truncated / degraded by attention.
    pub truncated: bool,
    /// Fraction of input lines the model attended to.
    pub retention: f64,
    /// Accumulated cost of this call in USD.
    pub cost_usd: f64,
}

/// Anything that can complete prompts (the simulator, or a stub in tests).
pub trait LanguageModel: Send + Sync {
    /// Model name.
    fn name(&self) -> &str;
    /// Behavioural profile.
    fn profile(&self) -> &ModelProfile;
    /// Complete a request, retrying internally until it succeeds.
    fn complete(&self, request: &CompletionRequest) -> Completion;
    /// One delivery attempt, surfacing injected faults and cancellation
    /// to the caller. Models without a failure model never fail.
    fn try_complete(&self, request: &CompletionRequest) -> Result<Completion, LlmError> {
        Ok(self.complete(request))
    }
}

/// Cumulative usage across a model instance's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Number of completions served.
    pub calls: usize,
    /// Total input tokens.
    pub input_tokens: usize,
    /// Total output tokens.
    pub output_tokens: usize,
    /// Total cost in USD.
    pub cost_usd: f64,
}

/// The simulated LLM.
pub struct SimLlm {
    profile: &'static ModelProfile,
    usage: Mutex<Usage>,
    plan: FaultPlan,
}

impl SimLlm {
    /// Instantiate by profile name (panics on unknown names).
    pub fn new(model: &str) -> Self {
        SimLlm {
            profile: profile_or_panic(model),
            usage: Mutex::new(Usage::default()),
            plan: FaultPlan::default(),
        }
    }

    /// Charge a simulated remote round-trip per completion. A deployed
    /// agent fronts network-hosted models whose latency — not local
    /// compute — dominates, so benchmarks use this to reproduce the
    /// latency-bound regime on any machine (the per-call analogue of
    /// `ioagentd`'s per-job `simulated_rpc_latency`). Output text and
    /// usage accounting are unaffected. This is the degenerate
    /// [`FaultPlan`]: a flat [`LatencyProfile`], no tail, no faults.
    pub fn with_latency(mut self, latency: std::time::Duration) -> Self {
        self.plan = self.plan.with_profile(LatencyProfile::flat(latency));
        self
    }

    /// Install a full failure model: streaming latency profile,
    /// heavy-tailed stragglers, and injected faults.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The installed failure model.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Deterministically preview one delivery attempt — its simulated
    /// latency and fault outcome — without sleeping, faulting, or
    /// charging usage. Possible because the simulator's draws are pure
    /// functions of (model, prompt, salt, attempt); a hedging caller
    /// uses this to compute the loser's exact projected finish time.
    pub fn preview_attempt(&self, request: &CompletionRequest) -> AttemptDraw {
        let full = format!("{}\n{}", request.system, request.user);
        let (completion, _) = self.generate(request, &full);
        self.plan.draw(
            self.profile.name,
            &full,
            request.salt,
            request.attempt,
            completion.output_tokens,
        )
    }

    /// The pure content path: attention, task dispatch, text, per-call
    /// cost. No latency, no faults, no usage commit — callers decide
    /// whether the attempt actually delivered.
    fn generate(&self, request: &CompletionRequest, full: &str) -> (Completion, String) {
        let mut rng = rng::rng_for(self.profile.name, full, request.salt);
        let attended = context::attend(self.profile, full, &mut rng);

        let task = tasks::parse_task(&attended.lines).unwrap_or_else(|| "diagnose".to_string());
        let load =
            (attended.input_tokens as f64 / self.profile.context_tokens as f64).clamp(0.0, 1.0);
        let text = match task.as_str() {
            "diagnose" => tasks::diagnose(self.profile, &attended.lines, load, &mut rng),
            "transform" => tasks::transform(self.profile, &attended.lines),
            "merge" => tasks::merge(self.profile, &attended.lines, &mut rng),
            "filter" => tasks::filter(self.profile, &attended.lines, &mut rng),
            "rank" => tasks::rank(self.profile, &attended.lines, &mut rng),
            "chat" => tasks::chat(self.profile, &attended.lines, &mut rng),
            _ => format!("I could not identify the task '{task}' in the prompt."),
        };

        let output_tokens = context::count_tokens(&text);
        let cost_usd =
            (attended.input_tokens + output_tokens) as f64 / 1.0e6 * self.profile.cost_per_mtok;
        (
            Completion {
                text,
                input_tokens: attended.input_tokens,
                output_tokens,
                truncated: attended.truncated,
                retention: attended.retention,
                cost_usd,
            },
            task,
        )
    }

    /// Snapshot of cumulative usage. Cost is derived here from the integer
    /// token totals (cost is linear in tokens, so the sum of per-call costs
    /// equals the cost of the summed tokens) rather than accumulated per
    /// call: f64 addition is order-sensitive, and with parallel completions
    /// an accumulated total would vary in its low bits from run to run —
    /// this way usage snapshots are bit-identical at any thread count.
    pub fn usage(&self) -> Usage {
        let mut usage = *self.usage.lock();
        usage.cost_usd =
            (usage.input_tokens + usage.output_tokens) as f64 / 1.0e6 * self.profile.cost_per_mtok;
        usage
    }
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn profile(&self) -> &ModelProfile {
        self.profile
    }

    /// Infinite-patience delivery: retry injected faults forever
    /// (honouring rate-limit hints), return the first success. This is
    /// the countermeasures-off baseline a resilient caller competes
    /// against — it always succeeds eventually, with an enormous tail.
    fn complete(&self, request: &CompletionRequest) -> Completion {
        let mut attempts = 1u64;
        let mut retry: Option<CompletionRequest> = None; // cloned lazily, only on retry
        loop {
            let req = retry.as_ref().unwrap_or(request);
            match self.try_complete(req) {
                Ok(completion) => {
                    llm_metrics().attempts.record(attempts);
                    return completion;
                }
                Err(LlmError::Cancelled) => {
                    // A cancelled infinite-patience call has no network
                    // result to return; surface the deterministic content
                    // without charging usage (racing callers discard it).
                    let full = format!("{}\n{}", req.system, req.user);
                    return self.generate(req, &full).0;
                }
                Err(LlmError::Fault { retry_after, .. }) => {
                    if let Some(wait) = retry_after {
                        std::thread::sleep(wait);
                    }
                    let mut next = retry.take().unwrap_or_else(|| request.clone());
                    next.attempt = next.attempt.wrapping_add(1);
                    retry = Some(next);
                    attempts += 1;
                }
            }
        }
    }

    /// One delivery attempt on the request's attempt lane: draw latency
    /// and fault from the plan, sleep cancellably, and commit usage and
    /// metrics only when the attempt actually delivers. Failed and
    /// cancelled attempts charge nothing — exactly one commit happens
    /// per delivered completion, so usage accounting stays deterministic
    /// whether or not faults forced retries or hedges along the way.
    fn try_complete(&self, request: &CompletionRequest) -> Result<Completion, LlmError> {
        let call_start = std::time::Instant::now();
        // An `llm.call` span attributes what the failure model adds to an
        // attempt: latency, faults, cancellation, the attempt lane. Without
        // one, a call is local deterministic CPU, timed by the caller's
        // stage span and counted by the `llm.*` metrics, so it opens no
        // span (the reflection fan-out makes ~15 such calls a fragment).
        let mut span = if self.plan.is_empty() {
            ioobserve::Tracer::disabled().span_fine("llm.call")
        } else {
            ioobserve::tracer().span_fine("llm.call")
        };
        span.set_attr("model", self.profile.name);
        if request.attempt != 0 {
            span.set_attr("attempt", request.attempt);
        }
        let full = format!("{}\n{}", request.system, request.user);
        let (completion, task) = self.generate(request, &full);
        let draw = self.plan.draw(
            self.profile.name,
            &full,
            request.salt,
            request.attempt,
            completion.output_tokens,
        );
        if (!draw.latency.is_zero() || request.cancel.is_cancelled())
            && !request.cancel.sleep(draw.latency)
        {
            span.set_attr("cancelled", true);
            ioobserve::metrics().counter("llm.cancelled").inc();
            return Err(LlmError::Cancelled);
        }
        if let Some(fault) = draw.fault {
            span.set_attr("fault", fault.kind.as_str());
            let counter = match fault.kind {
                FaultKind::Timeout => "llm.fault.timeout",
                FaultKind::RateLimited => "llm.fault.rate_limited",
                FaultKind::Truncated => "llm.fault.truncated",
            };
            ioobserve::metrics().counter(counter).inc();
            return Err(LlmError::Fault {
                kind: fault.kind,
                retry_after: fault.retry_after,
            });
        }
        {
            // Integer sums only; the snapshot in [`SimLlm::usage`] derives
            // the (order-invariant) cost from these totals.
            let mut u = self.usage.lock();
            u.calls += 1;
            u.input_tokens += completion.input_tokens;
            u.output_tokens += completion.output_tokens;
        }
        span.set_attr("task", &task);
        span.set_attr("input_tokens", completion.input_tokens);
        span.set_attr("output_tokens", completion.output_tokens);
        drop(span);
        let m = llm_metrics();
        m.calls.inc();
        m.input_tokens.add(completion.input_tokens as u64);
        m.output_tokens.add(completion.output_tokens as u64);
        m.cost_usd.add(completion.cost_usd);
        m.call_ns.record_duration(call_start.elapsed());
        Ok(completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_is_deterministic() {
        let m = SimLlm::new("gpt-4o");
        let req = CompletionRequest::new(
            "You are an HPC I/O expert.",
            "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000\nEVIDENCE posix.small_write_fraction=0.9",
        );
        let a = m.complete(&req);
        let b = m.complete(&req);
        assert_eq!(a.text, b.text);
        assert_eq!(a.input_tokens, b.input_tokens);
    }

    #[test]
    fn salt_changes_stochastic_outcomes() {
        let m = SimLlm::new("llama-3-70b");
        let user = "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000\nEVIDENCE posix.small_write_fraction=0.9\nEVIDENCE lustre.stripe_width_mean=1\nEVIDENCE total_bytes=2000000000\nEVIDENCE lustre.present=1";
        let texts: std::collections::BTreeSet<String> = (0..12)
            .map(|s| {
                m.complete(&CompletionRequest::new("sys", user).with_salt(s))
                    .text
            })
            .collect();
        assert!(texts.len() > 1, "salts produced identical outputs");
    }

    #[test]
    fn usage_accumulates() {
        let m = SimLlm::new("gpt-4o-mini");
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        );
        m.complete(&req);
        m.complete(&req);
        let u = m.usage();
        assert_eq!(u.calls, 2);
        assert!(u.input_tokens > 0);
        assert!(u.cost_usd > 0.0);
    }

    #[test]
    fn latency_knob_changes_neither_output_nor_accounting() {
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        );
        let plain = SimLlm::new("gpt-4o-mini");
        let slow = SimLlm::new("gpt-4o-mini").with_latency(std::time::Duration::from_millis(1));
        let a = plain.complete(&req);
        let b = slow.complete(&req);
        assert_eq!(a.text, b.text);
        assert_eq!(a.input_tokens, b.input_tokens);
        assert_eq!(plain.usage(), slow.usage());
    }

    #[test]
    fn unknown_task_degrades_gracefully() {
        let m = SimLlm::new("gpt-4");
        let c = m.complete(&CompletionRequest::new("", "### TASK: haiku\nwrite one"));
        assert!(c.text.contains("could not identify"));
    }

    #[test]
    fn huge_prompt_reports_truncation() {
        let m = SimLlm::new("gpt-4");
        let mut user = String::from("### TASK: diagnose\n");
        for i in 0..20_000 {
            user.push_str(&format!("POSIX\t0\t{i}\tPOSIX_READS\t1\t/f\t/\text4\n"));
        }
        let c = m.complete(&CompletionRequest::new("", &user));
        assert!(c.truncated);
        assert!(c.retention < 0.5);
    }

    #[test]
    #[should_panic(expected = "unknown model profile")]
    fn unknown_model_panics() {
        SimLlm::new("gpt-17");
    }

    /// A plan whose faults are frequent enough that infinite-patience
    /// delivery is all but guaranteed to retry, with waits in the
    /// microseconds so tests stay fast.
    fn flaky_plan() -> FaultPlan {
        FaultPlan::new()
            .with_profile(LatencyProfile::new(
                std::time::Duration::from_micros(20),
                2e8,
            ))
            .with_faults(FaultSpec {
                timeout_probability: 0.4,
                timeout: std::time::Duration::from_micros(50),
                rate_limit_probability: 0.2,
                retry_after: std::time::Duration::from_micros(10),
                truncate_probability: 0.1,
            })
    }

    #[test]
    fn faults_force_retries_but_content_and_usage_are_unchanged() {
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        );
        let plain = SimLlm::new("gpt-4o-mini");
        let flaky = SimLlm::new("gpt-4o-mini").with_fault_plan(flaky_plan());
        // Drive enough distinct prompts that some certainly fault.
        let mut faulted = 0usize;
        for i in 0..24 {
            let r = req.clone().with_salt(i);
            if flaky.try_complete(&r.clone().with_attempt(0)).is_err() {
                faulted += 1;
            }
            let a = plain.complete(&r);
            let b = flaky.complete(&r);
            assert_eq!(a.text, b.text, "salt {i}: retries changed content");
            assert_eq!(a.input_tokens, b.input_tokens);
        }
        assert!(
            faulted > 0,
            "plan with 70% fault rate never faulted in 24 draws"
        );
        // try_complete above committed usage only for its successes; the
        // paired complete() calls committed exactly once each. Totals are
        // therefore exact multiples of the per-call cost — faults and
        // retries never double- or under-count.
        assert_eq!(flaky.usage().calls, 24 + (24 - faulted));
        assert_eq!(plain.usage().calls, 24);
    }

    #[test]
    fn attempt_lane_changes_timing_but_not_content() {
        let m = SimLlm::new("gpt-4o").with_fault_plan(
            FaultPlan::new()
                .with_profile(LatencyProfile::new(
                    std::time::Duration::from_micros(10),
                    1e9,
                ))
                .with_tail(TailSpec {
                    probability: 0.5,
                    lognormal_sigma: 1.0,
                    median_multiplier: 8.0,
                    pareto_alpha: 1.5,
                    pareto_weight: 0.3,
                    max_multiplier: 50.0,
                }),
        );
        let req = CompletionRequest::new(
            "You are an HPC I/O expert.",
            "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000",
        );
        let draws: Vec<AttemptDraw> = (0..8)
            .map(|a| m.preview_attempt(&req.clone().with_attempt(a)))
            .collect();
        assert!(
            draws.iter().any(|d| *d != draws[0]),
            "8 attempt lanes drew identical timing"
        );
        let texts: std::collections::BTreeSet<String> = (0..8)
            .map(|a| m.complete(&req.clone().with_attempt(a)).text)
            .collect();
        assert_eq!(texts.len(), 1, "attempt lane leaked into content");
    }

    #[test]
    fn cancelled_attempt_charges_no_usage() {
        let m = SimLlm::new("gpt-4o-mini").with_latency(std::time::Duration::from_millis(50));
        let token = CancelToken::new();
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        )
        .with_cancel(token.clone());
        token.cancel();
        assert_eq!(m.try_complete(&req), Err(LlmError::Cancelled));
        assert_eq!(
            m.usage().calls,
            0,
            "cancelled attempt must not commit usage"
        );
    }

    #[test]
    fn preview_matches_try_complete_outcome() {
        let m = SimLlm::new("gpt-4o").with_fault_plan(flaky_plan());
        for salt in 0..16 {
            let req = CompletionRequest::new(
                "s",
                "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000",
            )
            .with_salt(salt);
            let preview = m.preview_attempt(&req);
            let outcome = m.try_complete(&req);
            match preview.fault {
                Some(f) => {
                    assert_eq!(
                        outcome,
                        Err(LlmError::Fault {
                            kind: f.kind,
                            retry_after: f.retry_after
                        }),
                        "salt {salt}"
                    );
                }
                None => assert!(outcome.is_ok(), "salt {salt}"),
            }
        }
    }
}
