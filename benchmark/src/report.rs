//! The result document: integer-only JSON in and out, the printed table,
//! and the one-line result the benchmark driver reads.
//!
//! Every value is a `u64` in millionths of its unit, so the files parse
//! with `contig::check`'s integer-only JSON parser.

use contig::check::{json, Json};

use crate::estimator::{spread_ppm, MICRO, MIN_TAIL_SAMPLES};
use crate::metrics::{self, MetricDef, Source, END_TO_END, PER_LAYER};

pub const SCHEMA: u64 = 1;

/// `run_seconds` of `BENCHMARK.json`: the time budget its driver passes as
/// `--seconds`. Every workload's default repetitions fit it on a 2 GHz core.
const RUN_SECONDS: u64 = 20;

/// A per-layer value in millionths of its unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Value {
    pub name: String,
    pub micro: u64,
}

impl Value {
    pub fn new(name: &str, micro: u64) -> Self {
        Self {
            name: name.to_string(),
            micro,
        }
    }
}

/// An end-to-end value: the floored figure and the median repetition's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EndToEnd {
    pub name: String,
    pub floor: u64,
    pub median: u64,
}

impl EndToEnd {
    /// `(median − floor) / floor` in ppm: the run's own noise.
    pub fn spread_ppm(&self) -> u64 {
        spread_ppm(self.median, self.floor)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadResult {
    pub name: String,
    /// Digest of the final simulated state, the event count and every exact
    /// count: identical between two commits unless the model changed.
    pub model_digest: u64,
    pub batches: u64,
    pub repetitions: u64,
    /// Batches beyond the 95th percentile's rank.
    pub tail_samples_beyond: u64,
    pub events: u64,
    pub failed: u64,
    pub end_to_end: Vec<EndToEnd>,
    /// Exact-count per-layer metrics.
    pub counts: Vec<Value>,
    /// Host-time per-layer metrics measured on the workload itself.
    pub host_layer: Vec<Value>,
    /// Invariant violations; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The end-to-end metric called `name`.
    pub fn metric(&self, name: &str) -> &EndToEnd {
        self.end_to_end
            .iter()
            .find(|e| e.name == name)
            .expect("every result carries every end-to-end metric")
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Document {
    pub seed: u64,
    pub smoke: bool,
    pub handicap_ppm: u64,
    pub nproc: u64,
    pub workloads: Vec<WorkloadResult>,
    /// The `layer_probes` pass (empty unless the run was traced).
    pub probes: Vec<Value>,
}

fn values_to_json(values: &[Value]) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|v| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(v.name.clone())),
                    ("micro".into(), Json::num(v.micro)),
                ])
            })
            .collect(),
    )
}

fn values_from_json(v: &Json) -> Result<Vec<Value>, String> {
    v.as_arr()
        .ok_or("expected an array of values")?
        .iter()
        .map(|item| {
            Ok(Value {
                name: str_field(item, "name")?,
                micro: u64_field(item, "micro")?,
            })
        })
        .collect()
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))
}

impl WorkloadResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("model_digest".into(), Json::num(self.model_digest)),
            ("batches".into(), Json::num(self.batches)),
            ("repetitions".into(), Json::num(self.repetitions)),
            (
                "tail_samples_beyond".into(),
                Json::num(self.tail_samples_beyond),
            ),
            ("events".into(), Json::num(self.events)),
            ("failed".into(), Json::num(self.failed)),
            (
                "end_to_end".into(),
                Json::Arr(
                    self.end_to_end
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(e.name.clone())),
                                ("micro".into(), Json::num(e.floor)),
                                ("median_micro".into(), Json::num(e.median)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("counts".into(), values_to_json(&self.counts)),
            ("host_layer".into(), values_to_json(&self.host_layer)),
            (
                "problems".into(),
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            name: str_field(v, "name")?,
            model_digest: u64_field(v, "model_digest")?,
            batches: u64_field(v, "batches")?,
            repetitions: u64_field(v, "repetitions")?,
            tail_samples_beyond: u64_field(v, "tail_samples_beyond")?,
            events: u64_field(v, "events")?,
            failed: u64_field(v, "failed")?,
            end_to_end: arr_field(v, "end_to_end")?
                .iter()
                .map(|e| {
                    Ok(EndToEnd {
                        name: str_field(e, "name")?,
                        floor: u64_field(e, "micro")?,
                        median: u64_field(e, "median_micro")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            counts: values_from_json(v.get("counts").ok_or("missing counts")?)?,
            host_layer: values_from_json(v.get("host_layer").ok_or("missing host_layer")?)?,
            problems: arr_field(v, "problems")?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "problems must be strings".to_string())
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

impl Document {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::num(SCHEMA)),
            ("seed".into(), Json::num(self.seed)),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("handicap_ppm".into(), Json::num(self.handicap_ppm)),
            ("nproc".into(), Json::num(self.nproc)),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
            ("probes".into(), values_to_json(&self.probes)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = u64_field(v, "schema")?;
        if schema != SCHEMA {
            return Err(format!("result schema {schema}, this build reads {SCHEMA}"));
        }
        Ok(Self {
            seed: u64_field(v, "seed")?,
            smoke: v
                .get("smoke")
                .and_then(Json::as_bool)
                .ok_or("missing smoke")?,
            handicap_ppm: u64_field(v, "handicap_ppm")?,
            nproc: u64_field(v, "nproc")?,
            workloads: arr_field(v, "workloads")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, String>>()?,
            probes: values_from_json(v.get("probes").ok_or("missing probes")?)?,
        })
    }

    /// Serializes with one metric per line, so result files diff well.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_json(), 0, &mut out);
        out.push('\n');
        out
    }

    pub fn from_text(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }

    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_text(&text).map_err(|e| format!("{path}: {e}"))
    }

    pub fn write(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_text()).map_err(|e| format!("{path}: {e}"))
    }
}

/// Indented JSON; objects and arrays that hold no nested container stay on
/// one line.
fn pretty(v: &Json, depth: usize, out: &mut String) {
    let nested = |v: &Json| matches!(v, Json::Arr(_) | Json::Obj(_));
    let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match v {
        Json::Arr(items) if items.iter().any(nested) => {
            ('[', ']', items.iter().map(|i| (None, i)).collect())
        }
        Json::Obj(members) if members.iter().any(|(_, m)| nested(m)) => (
            '{',
            '}',
            members.iter().map(|(k, m)| (Some(k.as_str()), m)).collect(),
        ),
        leaf => return out.push_str(&leaf.to_line()),
    };
    out.push(open);
    for (i, (key, member)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&Json::Str(key.to_string()).to_line());
            out.push_str(": ");
        }
        pretty(member, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// A fixed-point value as a decimal string with all six fractional digits.
pub fn decimal(micro: u64) -> String {
    format!(
        "{}.{:06}",
        u128::from(micro) / MICRO,
        u128::from(micro) % MICRO
    )
}

fn layer_def(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Prints every metric of the document by name, with its unit.
pub fn print(doc: &Document) {
    println!(
        "seed {:#x}  size {}  nproc {}  handicap {} ppm",
        doc.seed,
        if doc.smoke { "smoke" } else { "full" },
        doc.nproc,
        doc.handicap_ppm
    );
    println!("host-time columns: floor = per-batch minimum over repetitions; median = the median repetition");
    println!("simulated-time metrics (unit sim-*) come from the paper's cost model; the model is not validated");
    println!("against real hardware, so no error figure is given");
    for w in &doc.workloads {
        println!();
        let event = crate::workloads::by_name(&w.name).map_or("event", |s| s.event);
        println!(
            "== {}  ({} batches x {} repetitions, {} events (one is a {event}), {} failed, model_digest {:#018x}){}",
            w.name,
            w.batches,
            w.repetitions,
            w.events,
            w.failed,
            w.model_digest,
            if w.correct() { "" } else { "  INCORRECT" }
        );
        println!(
            "   {} batches lie beyond the 95th percentile{}",
            w.tail_samples_beyond,
            if w.tail_samples_beyond < MIN_TAIL_SAMPLES as u64 {
                ": fewer than 10, so the p95 is not resolved"
            } else {
                ""
            }
        );
        for p in &w.problems {
            println!("   problem: {p}");
        }
        println!(
            "   {:<34} {:>20} {:>20} {:>9}  {:<6} {:<6} bound",
            "end-to-end (host time)", "floor", "median", "spread", "unit", "better"
        );
        for (def, e) in END_TO_END.iter().zip(&w.end_to_end) {
            println!(
                "   {:<34} {:>20} {:>20} {:>8.2}%  {:<6} {:<6} {}%",
                e.name,
                decimal(e.floor),
                decimal(e.median),
                e.spread_ppm() as f64 / 1e4,
                def.unit,
                def.better.as_str(),
                def.bound_ppm as f64 / 1e4,
            );
        }
        println!(
            "   {:<34} {:>20}  unit",
            "per-layer (this workload)", "value"
        );
        for v in w.host_layer.iter().chain(&w.counts) {
            let unit = layer_def(&v.name).map_or("?", |d| d.unit);
            println!("   {:<34} {:>20}  {}", v.name, decimal(v.micro), unit);
        }
    }
    if !doc.probes.is_empty() {
        println!();
        println!("== layer_probes (floored host time per call)");
        for v in &doc.probes {
            let unit = layer_def(&v.name).map_or("?", |d| d.unit);
            println!("   {:<34} {:>20}  {}", v.name, decimal(v.micro), unit);
        }
    }
}

/// The last line of standard output in driver mode: one JSON object with
/// `correct`, `attempted`, `failed` and `metrics`. With `traced` the
/// metrics are every per-layer metric (0 for those this workload's layers
/// never produce), otherwise every end-to-end metric the manifest lists.
pub fn contract_line(w: &WorkloadResult, probes: &[Value], traced: bool) -> String {
    let mut metrics: Vec<String> = Vec::new();
    let mut push = |name: &str, micro: u64, unit: &str| {
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            decimal(micro)
        ));
    };
    if traced {
        for def in &PER_LAYER {
            let pool = if def.source == Source::Probe {
                probes
            } else {
                &w.host_layer
            };
            let micro = pool
                .iter()
                .chain(&w.counts)
                .find(|v| v.name == def.name)
                .map_or(0, |v| v.micro);
            push(def.name, micro, def.unit);
        }
    } else {
        for (def, e) in manifest_end_to_end().zip(&w.end_to_end) {
            push(def.name, e.floor, def.unit);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.correct(),
        w.events.max(1),
        w.failed,
        metrics.join(", ")
    )
}

/// The end-to-end metrics `BENCHMARK.json` lists: all but `failed_ppm`,
/// which must stay 0 and is carried by the result line's `failed` count
/// instead (the driver's metrics may never be 0).
fn manifest_end_to_end() -> impl Iterator<Item = &'static metrics::EndToEndDef> {
    END_TO_END.iter().filter(|d| d.bound_ppm > 0)
}

/// `BENCHMARK.json`, generated from the metric and workload tables.
pub fn manifest() -> String {
    let quote = |s: &str| Json::Str(s.to_string()).to_line();
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = crate::workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = manifest_end_to_end()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str()),
                decimal(d.manifest_bound_ppm).trim_end_matches('0')
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str())
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Document {
        Document {
            seed: 0x5EED_CAFE,
            smoke: true,
            handicap_ppm: 150_000,
            nproc: 2,
            workloads: vec![WorkloadResult {
                name: "native_churn".into(),
                model_digest: u64::MAX,
                batches: 200,
                repetitions: 7,
                tail_samples_beyond: 10,
                events: 2_000_000,
                failed: 0,
                end_to_end: END_TO_END
                    .iter()
                    .enumerate()
                    .map(|(i, d)| EndToEnd {
                        name: d.name.into(),
                        floor: 1_000_000 + i as u64,
                        median: 1_100_000,
                    })
                    .collect(),
                counts: vec![Value::new("buddy.allocs_per_kevent", 1_234_567)],
                host_layer: vec![Value::new("mm.touch_busy_ppm", 900_000_000_000)],
                problems: vec!["a \"quoted\" problem".into()],
            }],
            probes: vec![Value::new("buddy.alloc_o0_ns", 53_250_000)],
        }
    }

    #[test]
    fn document_round_trips_through_the_integer_only_parser() {
        let doc = sample();
        let text = doc.to_text();
        assert_eq!(Document::from_text(&text).unwrap(), doc);
        // The one-line form parses too, and a float is refused by the parser.
        assert_eq!(
            Document::from_json(&json::parse(&doc.to_json().to_line()).unwrap()).unwrap(),
            doc
        );
        assert!(json::parse("{\"micro\": 1.5}").is_err());
        assert!(Document::from_text("{\"schema\": 2}").is_err());
    }

    #[test]
    fn decimal_keeps_all_six_digits() {
        assert_eq!(decimal(1_203_400), "1.203400");
        assert_eq!(decimal(7), "0.000007");
        assert_eq!(decimal(u64::MAX), "18446744073709.551615");
    }

    #[test]
    fn contract_line_lists_the_manifest_metrics() {
        let doc = sample();
        let line = contract_line(&doc.workloads[0], &doc.probes, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2000000, \"failed\": 0"));
        for def in manifest_end_to_end() {
            assert!(line.contains(&format!("\"{}\": {{\"value\"", def.name)));
        }
        assert!(!line.contains("failed_ppm"));
        let traced = contract_line(&doc.workloads[0], &doc.probes, true);
        for def in &PER_LAYER {
            assert!(
                traced.contains(&format!("\"{}\":", def.name)),
                "{} missing",
                def.name
            );
        }
        assert!(traced.contains("\"buddy.alloc_o0_ns\": {\"value\": 53.250000"));
        assert!(traced.contains("\"mm.touch_busy_ppm\": {\"value\": 900000.000000"));
        assert!(traced.contains("\"virt.boot_busy_ppm\": {\"value\": 0.000000"));
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `contig-benchmark manifest`"
        );
    }
}
