//! Seeded request generation for the three workloads.
//!
//! Every request is a function of `(workload, seed, request index)`, so the
//! same seed gives the same bytes however many requests a run consumes.
//! Inputs are built from the 40 TraceBench traces: each trace is rendered
//! once per counter-magnitude scale into a canonical `darshan-parser` text
//! template, and a request splices its own `jobid` and `nprocs` header
//! lines into a template. The spliced text is itself canonical (it equals
//! `darshan::write::write_text` of the perturbed trace), so distinct
//! jobids give distinct cache keys at the cost of a memcpy per request.

use darshan::DarshanTrace;
use std::fmt::Write as _;

/// Backbone models requests are drawn from.
pub const MODELS: [&str; 2] = ["gpt-4o", "llama-3.1-70b"];

/// Factors applied to every `*BYTES*` integer counter (variant 0 keeps the
/// trace as generated).
const SCALES: [f64; 4] = [1.0, 0.75, 1.5, 3.0];
/// `nprocs` is multiplied by 1 or 2.
const NPROCS_FACTORS: usize = 2;

/// One in this many `repeat` requests carries content never submitted
/// before (10%).
const REPEAT_BLOCK: u64 = 10;
/// Share of `repeat` resubmissions re-rendered with equivalent formatting.
const REFORMAT_SHARE: f64 = 0.30;
/// Reformatted renderings pre-built per primed input.
const REFORMAT_VARIANTS: usize = 2;

/// jobid bases: primed inputs and per-request inputs never collide.
const PRIMED_JOBID_BASE: u64 = 1 << 40;
const REQUEST_JOBID_BASE: u64 = 1 << 41;

/// Random-stream domains, so the draws made under one seed are independent.
const DOMAIN_REQUEST: u64 = 1;
const DOMAIN_REFORMAT: u64 = 3;
const DOMAIN_ORDER: u64 = 4;
const DOMAIN_NEW: u64 = 5;
const DOMAIN_NEW_ORDER: u64 = 6;

/// SplitMix64: small, fast and good enough for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for item `index` of `domain` under `seed`.
    pub fn stream(seed: u64, domain: u64, index: u64) -> Self {
        let mut rng = Rng(seed
            ^ domain.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for j in (1..items.len()).rev() {
            items.swap(j, self.below(j + 1));
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which traffic mix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Every request is new content: the whole pipeline runs.
    Fresh,
    /// Mostly resubmissions of primed inputs: ingress and the cache path.
    Repeat,
    /// New content under the fault plan, sent on an open-loop schedule.
    Faulted,
}

impl WorkloadKind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fresh" => Some(WorkloadKind::Fresh),
            "repeat" => Some(WorkloadKind::Repeat),
            "faulted" => Some(WorkloadKind::Faulted),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Fresh => "fresh",
            WorkloadKind::Repeat => "repeat",
            WorkloadKind::Faulted => "faulted",
        }
    }
}

/// One canonical trace rendering, split around its `# jobid:` and
/// `# nprocs:` header lines.
struct Template {
    pre: String,
    post: String,
    pre_json: String,
    post_json: String,
    nprocs: u64,
}

/// The 40 TraceBench traces × [`SCALES`], pre-rendered.
pub struct Corpus {
    templates: Vec<Template>,
}

impl Corpus {
    /// Render every template (deterministic; independent of the seed).
    pub fn new() -> Self {
        let suite = tracebench::TraceBench::generate();
        let mut templates = Vec::with_capacity(suite.entries.len() * SCALES.len());
        for entry in &suite.entries {
            for &scale in &SCALES {
                let mut trace = entry.trace.clone();
                scale_bytes(&mut trace, scale);
                templates.push(Template::of(&trace));
            }
        }
        Corpus { templates }
    }

    /// Number of templates (traces × scales).
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Distinct (template, model, `nprocs` factor) combinations.
    fn combinations(&self) -> usize {
        self.templates.len() * MODELS.len() * NPROCS_FACTORS
    }

    /// Combination of request `i`: requests walk all combinations in
    /// blocks, each block a seeded permutation, so every run of a given
    /// length sees the same mix of trace sizes and models whatever the seed.
    fn combination_of(&self, seed: u64, domain: u64, i: u64) -> usize {
        let n = self.combinations();
        let mut order: Vec<usize> = (0..n).collect();
        Rng::stream(seed, domain, i / n as u64).shuffle(&mut order);
        order[(i % n as u64) as usize]
    }

    fn input(&self, combination: usize, jobid: u64) -> Input {
        let templates = self.templates.len();
        let template = combination % templates;
        let model = combination / templates % MODELS.len();
        let factor = (combination / templates / MODELS.len()) as u64 + 1;
        Input {
            template: template as u32,
            jobid,
            nprocs: self.templates[template].nprocs.max(1) * factor,
            model: model as u8,
        }
    }

    /// The canonical `darshan-parser` text of `input`.
    pub fn text(&self, input: &Input) -> String {
        let t = &self.templates[input.template as usize];
        let mut out = String::with_capacity(t.pre.len() + t.post.len() + 64);
        out.push_str(&t.pre);
        write!(
            out,
            "# jobid: {}\n# nprocs: {}\n",
            input.jobid, input.nprocs
        )
        .expect("write to String");
        out.push_str(&t.post);
        out
    }

    /// `input`'s text as a JSON string body (escaped, without quotes).
    fn text_json(&self, input: &Input) -> String {
        let t = &self.templates[input.template as usize];
        let mut out = String::with_capacity(t.pre_json.len() + t.post_json.len() + 64);
        out.push_str(&t.pre_json);
        write!(
            out,
            "# jobid: {}\\n# nprocs: {}\\n",
            input.jobid, input.nprocs
        )
        .expect("write to String");
        out.push_str(&t.post_json);
        out
    }
}

impl Template {
    fn of(trace: &DarshanTrace) -> Self {
        let text = darshan::write::write_text(trace);
        let start = text
            .find("\n# jobid: ")
            .expect("canonical header has a jobid line")
            + 1;
        let nprocs_line = text[start..]
            .find("\n# nprocs: ")
            .expect("canonical header has an nprocs line")
            + start
            + 1;
        let end = text[nprocs_line..]
            .find('\n')
            .expect("nprocs line is terminated")
            + nprocs_line
            + 1;
        let pre = text[..start].to_string();
        let post = text[end..].to_string();
        Template {
            pre_json: json_escape(&pre),
            post_json: json_escape(&post),
            pre,
            post,
            nprocs: trace.header.nprocs,
        }
    }
}

fn scale_bytes(trace: &mut DarshanTrace, scale: f64) {
    if scale == 1.0 {
        return;
    }
    for record in &mut trace.records {
        for (name, value) in record.icounters.iter_mut() {
            if name.contains("BYTES") && *value > 0 {
                *value = ((*value as f64) * scale).round() as i64;
            }
        }
    }
}

/// Distinct request content: a template, its two spliced header values,
/// and the backbone model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Input {
    template: u32,
    jobid: u64,
    nprocs: u64,
    model: u8,
}

impl Input {
    /// Backbone model name.
    pub fn model(&self) -> &'static str {
        MODELS[self.model as usize]
    }
}

/// How a request relates to content the daemon has already seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Content not submitted before in this run: must miss the cache.
    New,
    /// A primed input resubmitted byte for byte.
    Resubmit,
    /// A primed input re-rendered with equivalent formatting: must hit.
    Reformatted,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The NDJSON line sent to the daemon (no trailing newline).
    pub line: String,
    /// Its content identity (reformatted requests share the primed one).
    pub input: Input,
    /// Relation to earlier requests.
    pub kind: Kind,
}

/// A workload's request sequence under one seed.
pub struct Workload<'c> {
    kind: WorkloadKind,
    seed: u64,
    corpus: &'c Corpus,
    primed: Vec<Input>,
    /// Per primed input: its JSON trace body, then the reformatted ones.
    primed_json: Vec<Vec<String>>,
}

impl<'c> Workload<'c> {
    /// Prepare the workload. For `repeat` this pre-renders the primed
    /// inputs, one per template (160, below the daemon's default 256-entry
    /// LRU, so after first touch every resubmission is a memory hit), and
    /// their reformatted variants.
    pub fn new(kind: WorkloadKind, seed: u64, corpus: &'c Corpus) -> Self {
        // Distinct streams per workload under the same seed.
        let seed = seed ^ ((kind as u64 + 1) << 56);
        let mut primed = Vec::new();
        let mut primed_json = Vec::new();
        if kind == WorkloadKind::Repeat {
            // Templates are trace-major. The model × nprocs variant of
            // each primed input is a Latin square over (trace, scale), not a
            // seeded draw: the primed replies make up 90% of the run, so
            // their label quality would otherwise move with the seed.
            let variants = MODELS.len() * NPROCS_FACTORS;
            for k in 0..corpus.template_count() as u64 {
                let (trace, scale) = (k as usize / SCALES.len(), k as usize % SCALES.len());
                let variant = (trace + scale) % variants;
                let combination = k as usize + corpus.template_count() * variant;
                let input = corpus.input(combination, PRIMED_JOBID_BASE + k);
                let text = corpus.text(&input);
                let mut bodies = vec![corpus.text_json(&input)];
                for v in 0..REFORMAT_VARIANTS as u64 {
                    let mut rng = Rng::stream(seed, DOMAIN_REFORMAT, k * 16 + v);
                    bodies.push(json_escape(&reformat(&text, &mut rng)));
                }
                primed.push(input);
                primed_json.push(bodies);
            }
        }
        Workload {
            kind,
            seed,
            corpus,
            primed,
            primed_json,
        }
    }

    /// The corpus requests are drawn from.
    pub fn corpus(&self) -> &'c Corpus {
        self.corpus
    }

    /// Inputs the daemon is primed with before a timed `repeat` run.
    pub fn primed(&self) -> &[Input] {
        &self.primed
    }

    /// The request that primes input `k` (canonical rendering).
    pub fn priming_request(&self, k: usize) -> Request {
        Request {
            line: render_line(
                &format!("p{k}"),
                self.primed[k].model(),
                &self.primed_json[k][0],
            ),
            input: self.primed[k],
            kind: Kind::New,
        }
    }

    /// Request number `i` of the timed sequence.
    pub fn request(&self, i: u64) -> Request {
        let id = format!("r{i}");
        let new_content = match self.kind {
            WorkloadKind::Fresh | WorkloadKind::Faulted => {
                Some(self.corpus.combination_of(self.seed, DOMAIN_ORDER, i))
            }
            // New `repeat` requests walk the combinations on their own, so
            // the 10% that run the pipeline have the same mix every run.
            WorkloadKind::Repeat => self.is_new_in_repeat(i).then(|| {
                self.corpus
                    .combination_of(self.seed, DOMAIN_NEW_ORDER, i / REPEAT_BLOCK)
            }),
        };
        if let Some(combination) = new_content {
            let input = self.corpus.input(combination, REQUEST_JOBID_BASE + i);
            return Request {
                line: render_line(&id, input.model(), &self.corpus.text_json(&input)),
                input,
                kind: Kind::New,
            };
        }
        let mut rng = Rng::stream(self.seed, DOMAIN_REQUEST, i);
        let (variant, kind) = if rng.unit() < REFORMAT_SHARE {
            (1 + rng.below(REFORMAT_VARIANTS), Kind::Reformatted)
        } else {
            (0, Kind::Resubmit)
        };
        // Primed input k was rendered from template k.
        let k =
            self.corpus.combination_of(self.seed, DOMAIN_ORDER, i) % self.corpus.template_count();
        let input = self.primed[k];
        Request {
            line: render_line(&id, input.model(), &self.primed_json[k][variant]),
            input,
            kind,
        }
    }

    /// Exactly one request in each block of [`REPEAT_BLOCK`] is new, at a
    /// seeded position.
    fn is_new_in_repeat(&self, i: u64) -> bool {
        let block = i / REPEAT_BLOCK;
        let position = Rng::stream(self.seed, DOMAIN_NEW, block).below(REPEAT_BLOCK as usize);
        i % REPEAT_BLOCK == position as u64
    }
}

fn render_line(id: &str, model: &str, trace_json: &str) -> String {
    let mut line = String::with_capacity(trace_json.len() + 64);
    write!(line, "{{\"id\":\"{id}\",\"model\":\"{model}\",\"trace\":\"").expect("write");
    line.push_str(trace_json);
    line.push_str("\"}");
    line
}

/// Escape `s` as the body of a JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write");
            }
            c => out.push(c),
        }
    }
    out
}

/// Re-render canonical trace text with formatting the parser must ignore:
/// data rows shuffled, blank and whitespace-only lines inserted, trailing
/// whitespace appended, and sometimes CRLF line endings. Header lines keep
/// their order (the mount table is an ordered list).
pub fn reformat(text: &str, rng: &mut Rng) -> String {
    let (header, mut rows): (Vec<&str>, Vec<&str>) =
        text.lines().partition(|line| line.starts_with('#'));
    rng.shuffle(&mut rows);
    let eol = if rng.below(2) == 0 { "\n" } else { "\r\n" };
    const TRAILING: [&str; 4] = [" ", "  ", "\t", " \t"];
    let mut out = String::with_capacity(text.len() + text.len() / 8);
    for line in header.into_iter().chain(rows) {
        if rng.unit() < 0.05 {
            out.push_str(if rng.below(2) == 0 { "" } else { "  " });
            out.push_str(eol);
        }
        out.push_str(line);
        if rng.unit() < 0.2 {
            out.push_str(TRAILING[rng.below(TRAILING.len())]);
        }
        out.push_str(eol);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn corpus() -> &'static Corpus {
        static CORPUS: OnceLock<Corpus> = OnceLock::new();
        CORPUS.get_or_init(Corpus::new)
    }

    fn lines(kind: WorkloadKind, seed: u64, n: u64) -> Vec<String> {
        let w = Workload::new(kind, seed, corpus());
        let mut out: Vec<String> = (0..w.primed().len())
            .map(|k| w.priming_request(k).line)
            .collect();
        out.extend((0..n).map(|i| w.request(i).line));
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for kind in [
            WorkloadKind::Fresh,
            WorkloadKind::Repeat,
            WorkloadKind::Faulted,
        ] {
            let a = lines(kind, 7, 64);
            assert_eq!(a, lines(kind, 7, 64), "{kind:?} is not deterministic");
            assert_ne!(a, lines(kind, 8, 64), "{kind:?} ignores the seed");
        }
    }

    #[test]
    fn spliced_text_is_canonical_and_parses_back() {
        let w = Workload::new(WorkloadKind::Fresh, 3, corpus());
        for i in 0..40 {
            let request = w.request(i);
            let text = corpus().text(&request.input);
            let trace = darshan::parse::parse_text(&text).unwrap();
            assert_eq!(darshan::write::write_text(&trace), text);
            assert_eq!(trace.header.jobid, REQUEST_JOBID_BASE + i);
            let value: serde_json::Value = serde_json::from_str(&request.line).unwrap();
            assert_eq!(value.get("trace").and_then(|v| v.as_str()), Some(&text[..]));
            assert_eq!(
                value.get("model").and_then(|v| v.as_str()),
                Some(request.input.model())
            );
        }
    }

    #[test]
    fn reformatted_traces_keep_their_canonical_form() {
        let w = Workload::new(WorkloadKind::Repeat, 11, corpus());
        let mut reformatted = 0;
        for i in 0..400 {
            let request = w.request(i);
            let value: serde_json::Value = serde_json::from_str(&request.line).unwrap();
            let sent = value.get("trace").and_then(|v| v.as_str()).unwrap();
            let canonical = corpus().text(&request.input);
            let reparsed = darshan::parse::parse_text(sent).unwrap();
            assert_eq!(darshan::write::write_text(&reparsed), canonical);
            if request.kind == Kind::Reformatted {
                assert_ne!(sent, canonical, "reformatting changed nothing");
                reformatted += 1;
            }
        }
        assert!(reformatted > 50, "only {reformatted} reformatted requests");
    }

    #[test]
    fn fresh_requests_are_distinct_content() {
        let w = Workload::new(WorkloadKind::Fresh, 5, corpus());
        let inputs: std::collections::BTreeSet<Input> =
            (0..500).map(|i| w.request(i).input).collect();
        assert_eq!(inputs.len(), 500);
    }
}
