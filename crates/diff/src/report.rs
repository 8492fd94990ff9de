//! Typed fuzz-campaign reporting: one [`FuzzReport`] renders both the
//! human text summary and the machine-readable JSON (via the workspace's
//! JSON codec, [`cheriot_trace::json`], the same one the fault-injection
//! campaign reports use — no ad-hoc string formatting).

use crate::golden::{Coverage, OPCODE_NAMES};
use crate::lockstep::{Divergence, FirstDivergence, Mismatch};
use cheriot_trace::json::Json;

/// Aggregated outcome of a differential fuzz campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// First seed.
    pub seed_base: u64,
    /// Seeds run.
    pub count: u32,
    /// Worker threads used.
    pub threads: usize,
    /// Per-run cycle budget.
    pub budget_cycles: u64,
    /// Golden×engine pairs executed (seeds × cores × dispatch modes).
    pub pairs_run: u64,
    /// Total instructions the golden model retired.
    pub instructions: u64,
    /// Merged dynamic coverage.
    pub coverage: Coverage,
    /// Every confirmed divergence (already shrunk).
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Did every pair agree?
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Fraction of instruction variants exercised, in percent.
    pub fn opcode_coverage_pct(&self) -> u32 {
        self.coverage.opcode_count() * 100 / OPCODE_NAMES.len() as u32
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> String {
        let mut root = Json::obj();
        root.push("seed_base", self.seed_base)
            .push("count", self.count)
            .push("threads", self.threads)
            .push("budget_cycles", self.budget_cycles)
            .push("pairs_run", self.pairs_run)
            .push("instructions", self.instructions)
            .push("coverage", coverage_json(&self.coverage))
            .push("passed", self.passed())
            .push(
                "divergences",
                Json::Arr(self.divergences.iter().map(divergence_json).collect()),
            );
        root.render()
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str("differential fuzz campaign\n");
        s.push_str(&format!(
            "  seeds            {}..{} ({} seeds, {} threads)\n",
            self.seed_base,
            self.seed_base + u64::from(self.count),
            self.count,
            self.threads
        ));
        s.push_str(&format!(
            "  pairs run        {} (golden vs {{stepwise,cached,chained}} x {{ibex,flute}})\n",
            self.pairs_run
        ));
        s.push_str(&format!("  instructions     {}\n", self.instructions));
        s.push_str(&format!(
            "  opcode coverage  {}/{} ({}%)\n",
            self.coverage.opcode_count(),
            OPCODE_NAMES.len(),
            self.opcode_coverage_pct()
        ));
        let missed = self.coverage.opcode_names(false);
        if !missed.is_empty() {
            s.push_str(&format!("  opcodes missed   {}\n", missed.join(" ")));
        }
        let mut causes = self.coverage.trap_causes.clone();
        causes.sort_unstable();
        s.push_str(&format!(
            "  trap causes      {}\n",
            causes
                .iter()
                .map(|c| format!("{c:#x}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        s.push_str(&format!(
            "  postures         {}{}\n",
            if self.coverage.postures & 1 != 0 {
                "disabled "
            } else {
                ""
            },
            if self.coverage.postures & 2 != 0 {
                "enabled"
            } else {
                ""
            }
        ));
        s.push_str(&format!("  divergences      {}\n", self.divergences.len()));
        for d in &self.divergences {
            s.push_str(&format!(
                "\n  DIVERGENCE seed={} {}/{} at {} ({} instrs after shrink)\n",
                d.seed, d.core, d.dispatch, d.checkpoint, d.program_len
            ));
            for m in &d.mismatches {
                s.push_str(&format!(
                    "    {:<18} golden={} engine={}\n",
                    m.field, m.golden, m.engine
                ));
            }
            if let Some(f) = &d.first {
                s.push_str(&format!(
                    "    first divergence at cycle {} pc={:#x}\n",
                    f.cycle, f.pc
                ));
                for m in &f.deltas {
                    s.push_str(&format!(
                        "      {:<16} golden={} engine={}\n",
                        m.field, m.golden, m.engine
                    ));
                }
            }
        }
        s.push_str(&format!(
            "\n  verdict          {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        s
    }
}

fn coverage_json(c: &Coverage) -> Json {
    let mut causes = c.trap_causes.clone();
    causes.sort_unstable();
    let mut o = Json::obj();
    o.push("opcodes_hit", c.opcode_count())
        .push("opcodes_total", OPCODE_NAMES.len())
        .push(
            "hit",
            Json::Arr(c.opcode_names(true).into_iter().map(Json::from).collect()),
        )
        .push(
            "missed",
            Json::Arr(c.opcode_names(false).into_iter().map(Json::from).collect()),
        )
        .push(
            "trap_causes",
            Json::Arr(
                causes
                    .into_iter()
                    .map(|v| Json::UInt(u64::from(v)))
                    .collect(),
            ),
        )
        .push(
            "postures",
            Json::Arr(
                [(1, "disabled"), (2, "enabled")]
                    .iter()
                    .filter(|&&(bit, _)| c.postures & bit != 0)
                    .map(|&(_, n)| Json::from(n))
                    .collect(),
            ),
        );
    o
}

fn mismatch_json(m: &Mismatch) -> Json {
    let mut o = Json::obj();
    o.push("field", m.field.as_str())
        .push("golden", m.golden.as_str())
        .push("engine", m.engine.as_str());
    o
}

fn first_json(f: &FirstDivergence) -> Json {
    let mut o = Json::obj();
    o.push("cycle", f.cycle).push("pc", u64::from(f.pc)).push(
        "deltas",
        Json::Arr(f.deltas.iter().map(mismatch_json).collect()),
    );
    o
}

/// One divergence as JSON — also written standalone as the repro file.
pub fn divergence_json(d: &Divergence) -> Json {
    let mut o = Json::obj();
    o.push("seed", d.seed)
        .push("core", d.core.as_str())
        .push("dispatch", d.dispatch.as_str())
        .push("checkpoint", d.checkpoint.as_str())
        .push("program_len", d.program_len)
        .push(
            "mismatches",
            Json::Arr(d.mismatches.iter().map(mismatch_json).collect()),
        )
        .push("first", d.first.as_ref().map_or(Json::Null, first_json))
        .push(
            "listing",
            Json::Arr(d.listing.iter().map(|l| Json::from(l.as_str())).collect()),
        );
    o
}
