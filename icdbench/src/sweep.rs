//! Seeded exploration sweeps over a universe of grid points large enough
//! that about half of every sweep stays new for a whole window.

use crate::gen::{Rng, BUILTINS};
use icdb::cql::CqlArg;
use icdb::{ExploreSpec, Objective};
use std::collections::BTreeSet;

/// What a sweep ranges over.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Every implementation of a component type.
    Type(&'static str),
    /// One implementation under fixed attribute overrides.
    Imp(&'static str, Vec<(&'static str, i64)>),
}

/// One family of sweeps: a target and its width ranges.
#[derive(Debug, Clone)]
pub struct Family {
    /// What the family sweeps.
    pub target: Target,
    /// Smallest width.
    pub min_w: i64,
    /// Largest width under `cheapest` sizing.
    pub max_w: i64,
    /// Largest width when the sweep adds `fastest` sizing (below
    /// `min_w`: never).
    pub fastest_max: i64,
}

/// Component types swept whole (decoders and encoders have no `size`).
const SWEEP_TYPES: [&str; 12] = [
    "Counter",
    "Adder",
    "Adder_Subtractor",
    "Register",
    "Comparator",
    "Shifter",
    "Mux_scl",
    "Logic_unit",
    "ALU",
    "Tri_state",
    "Barrel_shifter",
    "Register_file",
];

/// Every sweep family.
pub fn families() -> Vec<Family> {
    let mut out: Vec<Family> = SWEEP_TYPES
        .iter()
        .map(|&ty| {
            let members = || BUILTINS.iter().filter(move |b| b.ty == ty);
            Family {
                target: Target::Type(ty),
                min_w: members().map(|b| b.min_w).max().unwrap_or(2),
                max_w: members().map(|b| b.sweep_max).min().unwrap_or(2),
                fastest_max: members().map(|b| b.fastest_max).min().unwrap_or(0),
            }
        })
        .collect();
    for ud in 1..=3 {
        for en in 0..=1 {
            for ld in 0..=1 {
                if (ud, en, ld) != (1, 0, 0) {
                    out.push(Family {
                        target: Target::Imp(
                            "COUNTER",
                            vec![("up_or_down", ud), ("enable", en), ("load", ld)],
                        ),
                        min_w: 2,
                        max_w: 128,
                        fastest_max: 3,
                    });
                }
            }
        }
    }
    for d in 2..=14 {
        out.push(Family {
            target: Target::Imp("SHL0", vec![("shift_distance", d)]),
            min_w: d + 1,
            max_w: 256,
            fastest_max: 16,
        });
    }
    out.push(Family {
        target: Target::Imp("REGISTER_FILE", vec![("abits", 1)]),
        min_w: 2,
        max_w: 48,
        fastest_max: 4,
    });
    out.push(Family {
        target: Target::Imp("CSEL_ADDER", vec![("block", 2)]),
        min_w: 2,
        max_w: 48,
        fastest_max: 0,
    });
    out
}

/// One grid point: implementation, attribute overrides, width, and
/// whether it is sized `fastest`.
pub type Point = (&'static str, Vec<(&'static str, i64)>, i64, bool);

impl Family {
    fn members(&self) -> Vec<(&'static str, Vec<(&'static str, i64)>)> {
        match &self.target {
            Target::Type(ty) => BUILTINS
                .iter()
                .filter(|b| b.ty == *ty)
                .map(|b| (b.imp, Vec::new()))
                .collect(),
            Target::Imp(imp, attrs) => vec![(*imp, attrs.clone())],
        }
    }

    /// The family's grid points at width `w`.
    fn points_at(&self, w: i64, fastest: bool) -> Vec<Point> {
        let mut out = Vec::new();
        for (imp, attrs) in self.members() {
            out.push((imp, attrs.clone(), w, false));
            if fastest {
                out.push((imp, attrs, w, true));
            }
        }
        out
    }

    /// Every point the family can sweep.
    pub fn universe(&self) -> Vec<Point> {
        let mut out = Vec::new();
        for w in self.min_w..=self.max_w {
            out.extend(self.points_at(w, w <= self.fastest_max));
        }
        out
    }
}

/// One exploration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// What it sweeps.
    pub family: Family,
    /// `size` values.
    pub widths: Vec<i64>,
    /// Sweep `fastest` sizing next to `cheapest`.
    pub fastest: bool,
    /// 0: default objective, 1: `max_delay`, 2: weights.
    pub objective: u8,
    /// Delay bound of objective 1 (ns).
    pub max_delay: f64,
    /// Exactness mode (`false`: `prune_exact:0`, margin pruning).
    pub exact: bool,
    /// Worker threads for the sweep's cold evaluations.
    pub workers: usize,
}

impl PartialEq for Family {
    fn eq(&self, other: &Family) -> bool {
        self.target == other.target
    }
}

impl Sweep {
    /// The CQL line and its output arguments.
    pub fn command(&self) -> (String, Vec<CqlArg>) {
        let widths: Vec<String> = self.widths.iter().map(|w| w.to_string()).collect();
        let mut line = String::from("command:explore; ");
        match &self.family.target {
            Target::Type(ty) => line.push_str(&format!("component:{ty}; ")),
            Target::Imp(imp, attrs) => {
                let attrs: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}:{v}")).collect();
                line.push_str(&format!(
                    "implementation:({imp}); attribute:({}); ",
                    attrs.join(",")
                ));
            }
        }
        line.push_str(&format!(
            "widths:({}); strategies:({}); workers:{}; ",
            widths.join(","),
            if self.fastest {
                "cheapest,fastest"
            } else {
                "cheapest"
            },
            self.workers
        ));
        match self.objective {
            1 => line.push_str(&format!("max_delay:{:.1}; ", self.max_delay)),
            2 => line.push_str("weights:(area:1,delay:2,power:0); "),
            _ => {}
        }
        if !self.exact {
            line.push_str("prune_exact:0; ");
        }
        line.push_str(
            "winner:?s; front:?s[]; points:?d; evaluated:?d; pruned:?d; \
             corpus_hits:?d; corpus_misses:?d",
        );
        let mut args = vec![
            CqlArg::OutStr(None),
            CqlArg::OutStrList(None),
            CqlArg::OutInt(None),
            CqlArg::OutInt(None),
            CqlArg::OutInt(None),
            CqlArg::OutInt(None),
            CqlArg::OutInt(None),
        ];
        if !self.exact {
            line.push_str("; table:?s");
            args.push(CqlArg::OutStr(None));
        }
        (line, args)
    }

    /// The same sweep for the embedded API, unpruned.
    pub fn spec_unpruned(&self) -> ExploreSpec {
        let objective = match self.objective {
            1 => Objective::MinAreaUnderDelay(self.max_delay),
            2 => Objective::Weighted {
                area: 1.0,
                delay: 2.0,
                power: 0.0,
            },
            _ => Objective::default(),
        };
        let mut spec = match &self.family.target {
            Target::Type(ty) => ExploreSpec::by_component(*ty),
            Target::Imp(imp, attrs) => {
                let mut spec = ExploreSpec::by_implementations([*imp]);
                for (k, v) in attrs {
                    spec = spec.attribute(*k, v.to_string());
                }
                spec
            }
        };
        spec = spec
            .widths(self.widths.clone())
            .strategies(if self.fastest {
                vec!["cheapest", "fastest"]
            } else {
                vec!["cheapest"]
            })
            .objective(objective)
            .workers(self.workers)
            .prune(false);
        spec
    }

    /// The sweep as the server runs it (corpus reuse on).
    pub fn spec(&self) -> ExploreSpec {
        self.spec_unpruned().prune(true).prune_exact(self.exact)
    }

    /// Every grid point.
    pub fn points(&self) -> Vec<Point> {
        self.widths
            .iter()
            .flat_map(|&w| self.family.points_at(w, self.fastest))
            .collect()
    }
}

/// An endless stream of sweeps, about half of whose widths were swept
/// before (in the pre-built corpus or an earlier sweep of the stream).
/// Families are drawn in proportion to their unseen points, so the new
/// half keeps the same mix until the universe runs dry.
#[derive(Debug, Clone)]
pub struct SweepGen {
    rng: Rng,
    families: Vec<Family>,
    seen: BTreeSet<Point>,
    workers: usize,
}

impl SweepGen {
    /// The sweep stream `stream` of `seed`, with `workers` threads per
    /// sweep.
    pub fn new(seed: u64, stream: u64, workers: usize) -> SweepGen {
        SweepGen {
            rng: Rng::derive(seed, 200 + stream),
            families: families(),
            seen: BTreeSet::new(),
            workers,
        }
    }

    /// Marks a sweep's points as known.
    pub fn note(&mut self, sweep: &Sweep) {
        self.seen.extend(sweep.points());
    }

    fn unseen(&self, family: &Family) -> usize {
        family
            .universe()
            .iter()
            .filter(|p| !self.seen.contains(*p))
            .count()
    }

    /// The next sweep.
    pub fn next_sweep(&mut self) -> Sweep {
        let weights: Vec<f64> = self
            .families
            .iter()
            .map(|f| self.unseen(f) as f64 + 1.0)
            .collect();
        let mut x = self.rng.unit() * weights.iter().sum::<f64>();
        let mut pick = weights.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                pick = i;
                break;
            }
            x -= w;
        }
        let family = self.families[pick].clone();
        let fastest = family.fastest_max >= family.min_w && self.rng.chance(0.4);
        let top = if fastest {
            family.fastest_max
        } else {
            family.max_w
        };
        let (seen, unseen): (Vec<i64>, Vec<i64>) = (family.min_w..=top).partition(|&w| {
            family
                .points_at(w, fastest)
                .iter()
                .all(|p| self.seen.contains(p))
        });
        // Half the widths come from each side (while both have some), so
        // no sweep is all corpus hits or all new and the latency
        // distribution has no gap at its median.
        let half = 1 + self.rng.below(2);
        let mut widths = Vec::new();
        for i in 0..2 * half {
            let source = match (i % 2 == 0, seen.is_empty(), unseen.is_empty()) {
                (true, false, _) | (false, false, true) => &seen,
                _ => &unseen,
            };
            let w = source[self.rng.below(source.len())];
            if !widths.contains(&w) {
                widths.push(w);
            }
        }
        widths.sort_unstable();
        let sweep = Sweep {
            family,
            widths,
            fastest,
            objective: self.rng.below(3) as u8,
            max_delay: ((5.0 + 40.0 * self.rng.unit()) * 10.0).round() / 10.0,
            exact: !self.rng.chance(0.3),
            workers: self.workers,
        };
        self.note(&sweep);
        sweep
    }
}
