//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a unit test keeps
//! the two in step); bounds live only there.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a client of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    hi("bohm_txn_per_s", "txn/s"),
    hi("tpl_txn_per_s", "txn/s"),
    hi("occ_txn_per_s", "txn/s"),
    hi("hekaton_txn_per_s", "txn/s"),
    lo("bohm_peak_rss_mb", "MB"),
    hi("bohm_durable_txn_per_s", "txn/s"),
    lo("recover_s", "s"),
    lo("wal_bytes_per_txn", "B"),
];

/// One number per layer, from the traced run. "better" is the direction
/// an optimisation of that layer should move it; shares of a fixed whole
/// (who uses the CPU) are listed as lower = that layer got cheaper.
pub const PER_LAYER: &[MetricDef] = &[
    // Demoted from the end-to-end list by the issue's own rule: two sets
    // on the reference host do not reproduce them within a tenth, nor
    // within the widest bound the contract allows (spreads in README.md).
    lo("bohm_p50_us", "us"),
    lo("bohm_p99_us", "us"),
    // -- engine runs, outside-in
    lo("core.seq.cpu_share", "ratio"),
    lo("core.cc.cpu_share", "ratio"),
    lo("core.exec.cpu_share", "ratio"),
    lo("driver.cpu_share", "ratio"),
    hi("core.cpu_accounted_share", "ratio"),
    lo("core.cc.sys_share", "ratio"),
    lo("core.exec.sys_share", "ratio"),
    lo("core.minor_faults_per_txn", "count"),
    lo("core.invol_switches_per_ktxn", "count"),
    lo("core.rss_growth_mb_per_s", "MB/s"),
    hi("core.gc.retired_per_write", "ratio"),
    hi("core.cc.busy_share", "ratio"),
    hi("core.exec.busy_share", "ratio"),
    lo("core.session.submit_ns_p50", "ns"),
    lo("core.session.submit_ns_p99", "ns"),
    lo("core.session.submit_blocked_share", "ratio"),
    lo("core.session.reap_wait_share", "ratio"),
    lo("core.roundtrip_us", "us"),
    lo("core.open_hi.p99_us", "us"),
    hi("core.open_hi.achieved_share", "ratio"),
    hi("core.seq.txns_per_batch", "count"),
    lo("bohm.cpu_us_per_txn", "us"),
    lo("tpl.cpu_us_per_txn", "us"),
    lo("occ.cpu_us_per_txn", "us"),
    lo("hekaton.cpu_us_per_txn", "us"),
    lo("tpl.abort_ratio", "ratio"),
    lo("occ.abort_ratio", "ratio"),
    lo("hekaton.abort_ratio", "ratio"),
    lo("driver.gen_ns_per_txn", "ns"),
    lo("driver.late_share", "ratio"),
    lo("trace.overhead_share", "ratio"),
    // -- micro section, single thread, median of 5 batches
    lo("common.zipf.sample_ns", "ns"),
    lo("workloads.ycsb.gen_ns", "ns"),
    lo("workloads.tpcc.gen_ns", "ns"),
    lo("common.txn.repack_ns", "ns"),
    lo("mvstore.chain.install_ns", "ns"),
    lo("mvstore.index.get_ns", "ns"),
    lo("mvstore.index.insert_ns", "ns"),
    lo("mvstore.chain.truncate_ns_per_version", "ns"),
    lo("mvstore.chain.visible_latest_ns", "ns"),
    lo("mvstore.chain.visible_deep_ns", "ns"),
    lo("mvstore.version.fill_1000b_ns", "ns"),
    lo("lockmgr.acquire_release_10_ns", "ns"),
    lo("tpl.solo_rmw10_ns", "ns"),
    lo("occ.solo_rmw10_ns", "ns"),
    lo("hekaton.solo_rmw10_ns", "ns"),
    lo("common.wal.append_ns_per_txn", "ns"),
    lo("common.wal.fsync_us", "us"),
    lo("common.wal.read_log_ns_per_txn", "ns"),
    lo("common.checkpoint.write_ms_per_mb", "ms/MB"),
    lo("common.checkpoint.load_ms_per_mb", "ms/MB"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "{}", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// registry, and exactly the workloads of `workload::WORKLOADS`.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for (list, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let items = doc.get(list).unwrap().items();
            assert_eq!(items.len(), defs.len(), "{list}");
            for (item, def) in items.iter().zip(defs) {
                assert_eq!(item.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    item.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    item.get("better").unwrap().as_str(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                let bound = item.get("bound").and_then(Json::as_f64);
                assert_eq!(bound.is_some(), bounded, "{}", def.name);
                assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
            }
        }
        let workloads = doc.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (item, w) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(item.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(item.get("why").unwrap().as_str(), Some(w.why));
        }
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
    }
}
