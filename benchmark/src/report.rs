//! What a run prints and writes: named readings with units, the one-line
//! machine-readable result, and the files under `benchmark/out/`.

use ensembler_tensor::JsonValue;
use std::error::Error;
use std::path::Path;

/// One named reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The reading, as measured (never rounded).
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the reading summarises (0 for a derived number or a count).
    pub samples: usize,
}

impl Metric {
    /// A reading with no sample count of its own.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            samples: 0,
        }
    }

    /// A reading that summarises `samples` timed calls.
    pub fn of_samples(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one run of one workload — untraced or traced — hands back.
pub struct Measured {
    /// Every reading of the run's kind, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Operations (and, in a traced run, exact-count checks) attempted.
    pub attempted: usize,
    /// Those that errored, were refused, or gave an answer that is not
    /// bit-identical to the in-process reference.
    pub failed: usize,
    /// Nothing failed and every gate held.
    pub correct: bool,
    /// Everything else worth keeping, for the run's JSON file.
    pub detail: JsonValue,
}

/// Shorthand for a JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{name: {"value": v, "unit": u}}` for every metric, in order.
pub fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", JsonValue::Number(m.value)),
                        ("unit", JsonValue::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result object a single-workload run prints as its last line of
/// standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Number(attempted as f64)),
        ("failed", JsonValue::Number(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

/// Prints every metric by name with its unit (and sample count where it has
/// one) to standard output.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!(
            "{workload:<20} {:<40} {:>14.4} {}{samples}",
            m.name, m.value, m.unit
        );
    }
}

/// Writes `value` as pretty JSON to `dir/name`, creating `dir`.
///
/// # Errors
///
/// Returns an error if the directory or file cannot be written.
pub fn write_json(dir: &Path, name: &str, value: &JsonValue) -> Result<(), Box<dyn Error>> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), value.render_pretty())?;
    Ok(())
}

/// Reads and parses a JSON file.
///
/// # Errors
///
/// Returns an error naming the file if it cannot be read or parsed.
pub fn read_json(path: &Path) -> Result<JsonValue, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()).into())
}
