//! Counterfactual makespan evaluation.
//!
//! A what-if edit rescales or removes modeled cost components and
//! replays the causal recurrence to get a *modeled lower bound* on
//! the edited run:
//!
//! * `zero:<kind>` — a collective kind becomes free (its segments
//!   still synchronize, at zero cost);
//! * `alpha:<s>` / `beta:<s>` — scale every collective's latency /
//!   bandwidth term (the α/β split is exact, so scale 1 is the
//!   identity bit-for-bit);
//! * `gamma:<s>` — scale local compute;
//! * `overlap` — overlapped communication/computation: a collective
//!   is issued at its recorded issue anchor (its group's last
//!   synchronization point) and runs concurrently with the local
//!   compute that follows, so the group resumes at
//!   `max(ready + α, issue + dt)` instead of `ready + dt` — the
//!   machine's own overlapped recurrence. On a run that was already
//!   recorded under overlapped accounting this edit is the identity,
//!   bit-for-bit.
//! * `serialize` — the inverse: replay every collective blocking
//!   (`ready + dt`) even if the run was recorded overlapped. This is
//!   the one *growing* edit — it prices what overlap is buying — so
//!   it is excluded from the monotonicity guarantee below. On a run
//!   recorded serialized it is the identity, bit-for-bit.
//!
//! The base replay is mode-aware: a timeline recorded with
//! `MachineSpec::overlap` set replays the overlapped recurrence
//! (recomputing issue clocks at each collective's recorded anchor
//! position, since edited durations move them), so the identity edit
//! reproduces the recorded makespan bit-for-bit in both modes.
//!
//! Every knob is monotone: with scales in `[0, 1]`, and for `zero`
//! and `overlap` always, the edited makespan never exceeds the
//! original (IEEE addition, multiplication by a factor in `[0, 1]`,
//! and `max` are all monotone; `issue ≤ ready` because a lane's
//! last-synchronization clock never exceeds its clock, and the
//! overlapped branch `ready + α` never exceeds `ready + dt` because
//! the bandwidth term is nonnegative).

use crate::builder::{SegmentKind, Timeline};
use mfbc_trace::row;

/// A counterfactual edit of the cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct WhatIf {
    /// Make this collective kind free (also accepts `backoff`).
    pub zero_kind: Option<String>,
    /// Scale on every collective's latency (α) term.
    pub alpha_scale: f64,
    /// Scale on every collective's bandwidth (β) term.
    pub beta_scale: f64,
    /// Scale on local compute (γ) time.
    pub gamma_scale: f64,
    /// Replay under the machine's overlapped recurrence even if the
    /// run was recorded serialized (a no-op on overlapped runs).
    pub overlap: bool,
    /// Replay every collective blocking even if the run was recorded
    /// overlapped (a no-op on serialized runs). Wins over `overlap`.
    /// The only growing edit: the result may exceed the baseline.
    pub serialize: bool,
}

impl Default for WhatIf {
    fn default() -> WhatIf {
        WhatIf {
            zero_kind: None,
            alpha_scale: 1.0,
            beta_scale: 1.0,
            gamma_scale: 1.0,
            overlap: false,
            serialize: false,
        }
    }
}

impl WhatIf {
    /// The identity edit: reproduces the original makespan
    /// bit-for-bit.
    pub fn identity() -> WhatIf {
        WhatIf::default()
    }

    /// Whether this edit changes nothing.
    pub fn is_identity(&self) -> bool {
        self.zero_kind.is_none()
            && self.alpha_scale == 1.0
            && self.beta_scale == 1.0
            && self.gamma_scale == 1.0
            && !self.overlap
            && !self.serialize
    }

    /// Parses a comma-separated edit spec: `overlap`, `serialize`,
    /// `zero:<kind>`, `alpha:<scale>`, `beta:<scale>`,
    /// `gamma:<scale>`, e.g. `overlap,beta:0.5`.
    pub fn parse(spec: &str) -> Result<WhatIf, String> {
        let mut w = WhatIf::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "overlap" {
                w.overlap = true;
                continue;
            }
            if part == "serialize" {
                w.serialize = true;
                continue;
            }
            let Some((key, value)) = part.split_once(':') else {
                return Err(format!(
                    "what-if clause `{part}`: expected `overlap`, `serialize`, `zero:<kind>`, or `<alpha|beta|gamma>:<scale>`"
                ));
            };
            match key.trim() {
                "zero" => w.zero_kind = Some(value.trim().to_string()),
                "alpha" | "beta" | "gamma" => {
                    let scale: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("what-if clause `{part}`: bad scale `{value}`"))?;
                    if !scale.is_finite() || scale < 0.0 {
                        return Err(format!(
                            "what-if clause `{part}`: scale must be finite and >= 0"
                        ));
                    }
                    match key.trim() {
                        "alpha" => w.alpha_scale = scale,
                        "beta" => w.beta_scale = scale,
                        _ => w.gamma_scale = scale,
                    }
                }
                other => return Err(format!("what-if clause `{part}`: unknown knob `{other}`")),
            }
        }
        Ok(w)
    }

    /// Compact display label (`identity` for the no-op edit).
    pub fn label(&self) -> String {
        if self.is_identity() {
            return "identity".to_string();
        }
        let mut parts = Vec::new();
        if let Some(k) = &self.zero_kind {
            parts.push(format!("zero:{k}"));
        }
        if self.alpha_scale != 1.0 {
            parts.push(format!("alpha:{}", self.alpha_scale));
        }
        if self.beta_scale != 1.0 {
            parts.push(format!("beta:{}", self.beta_scale));
        }
        if self.gamma_scale != 1.0 {
            parts.push(format!("gamma:{}", self.gamma_scale));
        }
        if self.overlap {
            parts.push("overlap".to_string());
        }
        if self.serialize {
            parts.push("serialize".to_string());
        }
        parts.join(",")
    }
}

/// Replays the causal recurrence under `edit` and returns the edited
/// makespan.
///
/// The serial replay is the builder's recurrence verbatim, so the
/// identity edit returns [`Timeline::makespan_s`] bit-for-bit.
pub fn evaluate(tl: &Timeline, edit: &WhatIf) -> f64 {
    let n = tl.lanes.len();
    let overlapped = (tl.spec.overlap || edit.overlap) && !edit.serialize;
    // `clock[l]`: the lane's causal clock (after its last segment).
    // `synced[l]`: the clock at the lane's last synchronization — the
    // issue clock of a collective anchored there.
    let mut clock = vec![0.0f64; n];
    let mut synced = vec![0.0f64; n];
    // Issue clocks must be re-captured at each collective's anchor
    // position, because edited durations move every clock: group the
    // anchored nodes by capture position up front.
    let mut capture: Vec<Vec<usize>> = Vec::new();
    let mut issue_val = Vec::new();
    if overlapped {
        capture = vec![Vec::new(); tl.nodes.len() + 1];
        issue_val = vec![0.0f64; tl.nodes.len()];
        for (j, node) in tl.nodes.iter().enumerate() {
            if let Some(a) = node.issue_at {
                capture[a].push(j);
            }
        }
    }
    for (i, node) in tl.nodes.iter().enumerate() {
        if overlapped {
            for &j in &capture[i] {
                let mut iss = 0.0f64;
                for &l in &tl.nodes[j].lanes {
                    iss = iss.max(synced[l]);
                }
                issue_val[j] = iss;
            }
        }
        let class = node_kind(node);
        let dt = edited_dt(&class, node.dt_s, edit);
        match &node.kind {
            SegmentKind::Compute { .. } => {
                clock[node.lanes[0]] += dt;
            }
            SegmentKind::Collective { .. } | SegmentKind::Backoff => {
                let mut ready = 0.0f64;
                for &l in &node.lanes {
                    ready = ready.max(clock[l]);
                }
                // Backoffs are serialized in both modes (matching the
                // machine); a collective overlaps when the replay mode
                // says so and it carries an issue anchor.
                let post = if overlapped && node.issue_at.is_some() {
                    let alpha = edited_alpha(&class, edit);
                    (ready + alpha).max(issue_val[i] + dt)
                } else {
                    ready + dt
                };
                for &l in &node.lanes {
                    clock[l] = post;
                    synced[l] = post;
                }
            }
        }
    }
    tl.lanes
        .iter()
        .enumerate()
        .filter(|(_, l)| l.alive)
        .map(|(i, _)| clock[i])
        .fold(0.0, f64::max)
}

/// A named edit with its evaluated bound.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WhatIfReport {
    /// Display label of the edit.
    pub label: String,
    /// Edited (counterfactual) makespan in seconds.
    pub makespan_s: f64,
    /// The unedited makespan it is compared against.
    pub baseline_s: f64,
}

row! { WhatIfReport {
    "label" => label,
    "makespan_s" => makespan_s,
    "baseline_s" => baseline_s,
} }

impl WhatIfReport {
    /// `baseline / edited` (∞-safe: 1.0 when the edit is a no-op on a
    /// zero makespan).
    pub fn speedup(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.baseline_s / self.makespan_s
        } else if self.baseline_s > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Evaluates `edit` against `tl` and packages the comparison.
pub fn report(tl: &Timeline, edit: &WhatIf) -> WhatIfReport {
    WhatIfReport {
        label: edit.label(),
        makespan_s: evaluate(tl, edit),
        baseline_s: tl.makespan_s(),
    }
}

enum EditClass<'a> {
    Collective {
        kind: &'a str,
        alpha_s: f64,
        beta_s: f64,
    },
    Compute,
    Backoff,
}

fn node_kind(node: &crate::builder::Node) -> EditClass<'_> {
    match &node.kind {
        SegmentKind::Collective {
            kind,
            alpha_s,
            beta_s,
            ..
        } => EditClass::Collective {
            kind,
            alpha_s: *alpha_s,
            beta_s: *beta_s,
        },
        SegmentKind::Compute { .. } => EditClass::Compute,
        SegmentKind::Backoff => EditClass::Backoff,
    }
}

/// The edited duration of one segment. Scale 1 multiplications are
/// IEEE identities, so the identity edit reproduces `dt_s` exactly.
fn edited_dt(class: &EditClass<'_>, dt_s: f64, edit: &WhatIf) -> f64 {
    match *class {
        EditClass::Collective {
            kind,
            alpha_s,
            beta_s,
        } => {
            if edit.zero_kind.as_deref() == Some(kind) {
                return 0.0;
            }
            if edit.alpha_scale == 1.0 && edit.beta_scale == 1.0 {
                // `beta_s + alpha_s == dt_s` holds by construction,
                // but returning the recorded duration keeps the
                // identity obvious.
                dt_s
            } else {
                beta_s * edit.beta_scale + alpha_s * edit.alpha_scale
            }
        }
        EditClass::Compute => {
            if edit.gamma_scale == 1.0 {
                dt_s
            } else {
                dt_s * edit.gamma_scale
            }
        }
        EditClass::Backoff => {
            if edit.zero_kind.as_deref() == Some("backoff") {
                0.0
            } else {
                dt_s
            }
        }
    }
}

/// The edited latency (α) term of a collective — the part that stays
/// on the critical path under overlapped accounting. Zeroed kinds
/// lose their latency too; scale 1 is the bit-exact identity. Always
/// at most [`edited_dt`] for the same node, because the edited
/// bandwidth term is nonnegative.
fn edited_alpha(class: &EditClass<'_>, edit: &WhatIf) -> f64 {
    match *class {
        EditClass::Collective { kind, alpha_s, .. } => {
            if edit.zero_kind.as_deref() == Some(kind) {
                0.0
            } else if edit.alpha_scale == 1.0 {
                alpha_s
            } else {
                alpha_s * edit.alpha_scale
            }
        }
        EditClass::Compute | EditClass::Backoff => 0.0,
    }
}
