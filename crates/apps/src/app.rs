//! Application bundles.
//!
//! An [`App`] is everything the evaluation needs about one benchmark: its
//! IR module, at least two input datasets (the coverage analysis of §IV-C
//! requires comparing runs), a VM-overhead model calibrated to the paper's
//! measured VM/native ratio, and a link to the paper's published profile.

use crate::embedded;
use crate::profile::{paper_profile, AppProfile, Domain};
use crate::synth;
use jitise_base::SimTime;
use jitise_ir::Module;
use jitise_vm::exec_model::ExecModel;
use jitise_vm::{Interpreter, Profile, RunConfig, Value, VmTier};

/// One input data set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Data-set label (`train`, `ref`, …).
    pub name: &'static str,
    /// Arguments passed to the entry function.
    pub args: Vec<Value>,
}

/// A benchmark application, ready to execute and analyze.
pub struct App {
    /// Benchmark name (matches [`crate::profile::PAPER_APPS`]).
    pub name: &'static str,
    /// Domain.
    pub domain: Domain,
    /// The compiled (optimized) module.
    pub module: Module,
    /// Input datasets; index 0 is the "train" set used for headline
    /// numbers, further sets exist for coverage classification.
    pub datasets: Vec<Dataset>,
    /// Dynamic-translation model calibrated to the paper's `Ratio` column.
    pub exec_model: ExecModel,
    /// Entry function name.
    pub entry: &'static str,
}

impl App {
    /// Builds an application by benchmark name.
    pub fn build(name: &str) -> Option<App> {
        match name {
            "adpcm" => Some(embedded::adpcm()),
            "fft" => Some(embedded::fft()),
            "sor" => Some(embedded::sor()),
            "whetstone" => Some(embedded::whetstone()),
            other => {
                let profile = paper_profile(other)?;
                if profile.domain == Domain::Scientific {
                    Some(synth::build_scientific(profile))
                } else {
                    None
                }
            }
        }
    }

    /// Builds all 14 applications in table order.
    pub fn all() -> Vec<App> {
        crate::profile::PAPER_APPS
            .iter()
            .map(|p| App::build(p.name).expect("registry covers all paper apps"))
            .collect()
    }

    /// Builds only the embedded applications.
    pub fn embedded() -> Vec<App> {
        crate::profile::embedded_names()
            .into_iter()
            .map(|n| App::build(n).expect("embedded app"))
            .collect()
    }

    /// The paper's published profile for this app.
    pub fn paper(&self) -> &'static AppProfile {
        paper_profile(self.name).expect("every app has a paper profile")
    }

    /// Runs one dataset on the production tier ([`VmTier::default`]) and
    /// returns its profile.
    pub fn run_dataset(&self, idx: usize) -> Profile {
        self.run_dataset_tier(idx, VmTier::default())
    }

    /// Runs one dataset on the given execution tier. Both tiers produce
    /// bit-identical profiles; the fast tier just gets there sooner.
    pub fn run_dataset_tier(&self, idx: usize, tier: VmTier) -> Profile {
        let ds = &self.datasets[idx];
        let mut vm = Interpreter::with_config(
            &self.module,
            jitise_vm::CostModel::ppc405(),
            RunConfig::default(),
        );
        vm.set_tier(tier);
        vm.run(self.entry, &ds.args)
            .unwrap_or_else(|e| panic!("{}: dataset {} failed: {e}", self.name, ds.name));
        vm.take_profile()
    }

    /// Profiles every dataset on the production tier (for coverage
    /// classification).
    pub fn profile_all_datasets(&self) -> Vec<Profile> {
        self.profile_all_datasets_tier(VmTier::default())
    }

    /// Profiles every dataset on the given execution tier.
    pub fn profile_all_datasets_tier(&self, tier: VmTier) -> Vec<Profile> {
        (0..self.datasets.len())
            .map(|i| self.run_dataset_tier(i, tier))
            .collect()
    }

    /// The scale factor extrapolating the measured train-set profile to the
    /// paper's reported VM runtime: the paper ran full benchmark inputs
    /// ("for a few or several tens of seconds"), which would take hours to
    /// interpret 1:1; we run a shortened input and scale the profile (see
    /// DESIGN.md §1).
    pub fn time_scale(&self, measured: &Profile) -> u64 {
        let cost = jitise_vm::CostModel::ppc405();
        let measured_time = cost.cycles_to_time(measured.total_cycles());
        if measured_time == SimTime::ZERO {
            return 1;
        }
        let target = SimTime::from_secs_f64(self.paper().native_s);
        (target.as_nanos() / measured_time.as_nanos().max(1)).max(1)
    }

    /// Train-set profile scaled to the paper's runtime.
    pub fn scaled_profile(&self) -> Profile {
        let p = self.run_dataset(0);
        let scale = self.time_scale(&p);
        p.scaled(scale)
    }

    /// Models the compile-to-bitcode time (Table I `real [s]`): dominated
    /// by parsing/IR-generation (∝ LOC) plus -O3 (∝ instructions). The
    /// coefficients are fit to the paper's llvm-gcc measurements.
    pub fn compile_time_model(&self) -> SimTime {
        let p = self.paper();
        let s = 0.08 + 0.00035 * p.loc as f64 + 0.00038 * p.insts as f64;
        SimTime::from_secs_f64(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_embedded() {
        for name in ["adpcm", "fft", "sor", "whetstone"] {
            let app = App::build(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(app.name, name);
            assert!(app.datasets.len() >= 2, "{name}: need >=2 datasets");
            jitise_ir::verify::verify_module(&app.module)
                .unwrap_or_else(|e| panic!("{name}: invalid module: {e}"));
        }
    }

    #[test]
    fn unknown_app_is_none() {
        assert!(App::build("999.nonesuch").is_none());
    }

    #[test]
    fn embedded_apps_execute_and_profile() {
        for app in App::embedded() {
            let p = app.run_dataset(0);
            assert!(p.total_cycles() > 0, "{}: no cycles recorded", app.name);
            assert!(p.total_insts() > 0);
        }
    }

    #[test]
    fn datasets_differ_in_work() {
        let app = App::build("sor").unwrap();
        let p0 = app.run_dataset(0);
        let p1 = app.run_dataset(1);
        assert_ne!(
            p0.total_cycles(),
            p1.total_cycles(),
            "datasets must exercise different amounts of work"
        );
    }

    #[test]
    fn time_scale_reasonable() {
        let app = App::build("fft").unwrap();
        let p = app.run_dataset(0);
        let scale = app.time_scale(&p);
        assert!(scale >= 1);
        let scaled = p.scaled(scale);
        let t = jitise_vm::CostModel::ppc405().cycles_to_time(scaled.total_cycles());
        let target = app.paper().native_s;
        // Integer scaling: within a factor of 2 of the target runtime.
        assert!(
            t.as_secs_f64() > target * 0.4 && t.as_secs_f64() < target * 2.1,
            "scaled time {} vs target {target}",
            t.as_secs_f64()
        );
    }

    #[test]
    fn compile_model_shape() {
        // Embedded compile times must be much smaller than scientific ones
        // (paper: 28x on average).
        let fft = App::build("fft").unwrap().compile_time_model();
        let namd = App::build("444.namd").unwrap().compile_time_model();
        assert!(namd.as_secs_f64() > 10.0 * fft.as_secs_f64());
    }
}
