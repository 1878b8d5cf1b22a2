//! Serialization round-trips for every externally visible artifact: plans,
//! reports, profiles and the knowledge database must survive JSON without
//! losing measurement fidelity (the knowledge DB persists across scheduler
//! processes, so this is a correctness property, not a convenience).

use clip_core::knowledge::{KnowledgeDb, KnowledgeRecord};
use clip_core::{ClipScheduler, InflectionPredictor, PowerScheduler, SchedulePlan, SmartProfiler};
use cluster_sim::{run_job, Cluster, JobSpec};
use simkit::Power;
use simnode::{AffinityPolicy, Node, NodeTopology, PStateTable, Placement, MAX_SOCKETS};
use workload::suite;

#[test]
fn schedule_plan_roundtrip() {
    let mut cluster = Cluster::paper_testbed(5);
    let mut clip = ClipScheduler::new(InflectionPredictor::train_default(5));
    let plan = clip.plan(&mut cluster, &suite::lu_mz(), Power::watts(1400.0));
    let json = serde_json::to_string(&plan).expect("serialize plan");
    let back: SchedulePlan = serde_json::from_str(&json).expect("deserialize plan");
    assert_eq!(plan.scheduler, back.scheduler);
    assert_eq!(plan.node_ids, back.node_ids);
    assert_eq!(plan.threads_per_node, back.threads_per_node);
    assert_eq!(plan.policy, back.policy);
    for (a, b) in plan.caps.iter().zip(&back.caps) {
        // JSON may shorten the float by one ULP; measurements must agree
        // to far better than a microwatt.
        assert!((a.cpu.as_watts() - b.cpu.as_watts()).abs() < 1e-9);
        assert!((a.dram.as_watts() - b.dram.as_watts()).abs() < 1e-9);
    }
}

#[test]
fn job_report_roundtrip_preserves_measurements() {
    let mut cluster = Cluster::paper_testbed(5);
    let app = suite::amg();
    let spec = JobSpec::on_first_nodes(&app, 4, 24, AffinityPolicy::Scatter, 3);
    let report = run_job(&mut cluster, &spec, 0, &mut clip_obs::NoopRecorder);
    let json = serde_json::to_string(&report).expect("serialize report");
    let back: cluster_sim::JobReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(report.total_time, back.total_time);
    assert_eq!(report.cluster_power, back.cluster_power);
    assert_eq!(report.per_node.len(), back.per_node.len());
    assert!((report.performance() - back.performance()).abs() < 1e-12);
}

#[test]
fn profile_roundtrip_preserves_features() {
    let mut node = Node::haswell();
    let profile = SmartProfiler::default().profile(&mut node, &suite::bt_mz());
    let json = serde_json::to_string(&profile).expect("serialize profile");
    let back: clip_core::ProfileData = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(profile.class, back.class);
    assert_eq!(profile.policy, back.policy);
    let f1 = profile.features();
    let f2 = back.features();
    for (a, b) in f1.iter().zip(&f2) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn predictor_roundtrip_predicts_identically() {
    let predictor = InflectionPredictor::train_default(5);
    let json = serde_json::to_string(&predictor).expect("serialize predictor");
    let back: InflectionPredictor = serde_json::from_str(&json).expect("deserialize");

    let mut node = Node::haswell();
    let profile = SmartProfiler::default().profile(&mut node, &suite::tea_leaf());
    assert_eq!(predictor.predict(&profile), back.predict(&profile));
}

#[test]
fn knowledge_db_file_roundtrip_supports_scheduling() {
    // Profile with one scheduler instance, persist, schedule with another.
    let mut cluster = Cluster::paper_testbed(5);
    let mut first = ClipScheduler::new(InflectionPredictor::train_default(5));
    let app = suite::sp_mz();
    let plan1 = first.plan(&mut cluster, &app, Power::watts(1200.0));

    let dir = std::env::temp_dir().join("clip-serialization-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kdb.json");
    first.knowledge().save(&path).unwrap();

    let db = KnowledgeDb::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut second =
        ClipScheduler::new(InflectionPredictor::train_default(5)).with_knowledge_db(db);
    let plan2 = second.plan(&mut cluster, &app, Power::watts(1200.0));

    assert_eq!(second.profiles_performed(), 0, "DB hit must skip profiling");
    assert_eq!(plan1.threads_per_node, plan2.threads_per_node);
    assert_eq!(plan1.nodes(), plan2.nodes());
}

#[test]
fn knowledge_record_json_shape_is_stable() {
    // Guard the on-disk schema: key fields must appear under their
    // documented names, so external tooling can read the database.
    let mut node = Node::haswell();
    let profile = SmartProfiler::default().profile(&mut node, &suite::comd());
    let record = KnowledgeRecord { profile, np: 24 };
    let json = serde_json::to_value(&record).expect("to_value");
    assert!(json.get("np").is_some());
    let profile = json.get("profile").expect("profile field");
    for field in [
        "app_name",
        "policy",
        "all_core",
        "half_core",
        "low_freq",
        "class",
    ] {
        assert!(profile.get(field).is_some(), "missing field {field}");
    }
}

/// The JSON `Placement` gave when it owned a `Vec<usize>`, built from the
/// parts' own JSON.
fn vec_form_json(policy: AffinityPolicy, active_per_socket: Vec<usize>) -> String {
    format!(
        r#"{{"policy":{},"active_per_socket":{}}}"#,
        serde_json::to_string(&policy).expect("serialize policy"),
        serde_json::to_string(&active_per_socket).expect("serialize counts")
    )
}

/// A node description is checked where it is read: every shape that
/// `NodeTopology::new` rejects fails to parse, alone or inside a `Node`,
/// with an error that names it; a good one round-trips to the same bytes.
#[test]
fn bad_node_topology_fails_to_parse() {
    let haswell = NodeTopology::haswell_2x12();
    let json = serde_json::to_string(&haswell).expect("serialize topology");
    assert_eq!(json, r#"{"sockets":2,"cores_per_socket":12}"#);
    let back: NodeTopology = serde_json::from_str(&json).expect("deserialize topology");
    assert_eq!(back, haswell);
    assert_eq!(
        serde_json::to_string(&back).expect("serialize topology"),
        json
    );

    let node_json = serde_json::to_string(&Node::haswell()).expect("serialize node");
    assert!(node_json.contains(&json), "{node_json}");
    let node: Node = serde_json::from_str(&node_json).expect("deserialize node");
    assert_eq!(node.topology(), &haswell);
    for (sockets, cores, why) in [
        (0, 4, "topology needs at least one socket"),
        (9, 4, "9 sockets exceed the supported 4"),
        (5, 12, "5 sockets exceed the supported 4"),
        (2, 0, "topology needs at least one core per socket"),
    ] {
        let bad = format!(r#"{{"sockets":{sockets},"cores_per_socket":{cores}}}"#);
        let err = serde_json::from_str::<NodeTopology>(&bad)
            .err()
            .map(|e| e.to_string());
        let named = format!("{sockets} sockets x {cores} cores: {why}");
        assert!(
            err.as_deref().is_some_and(|e| e.contains(&named)),
            "{bad}: expected an error with {named:?}, got {err:?}"
        );
        let bad_node = node_json.replace(&json, &bad);
        assert!(
            serde_json::from_str::<Node>(&bad_node).is_err(),
            "{bad_node}"
        );
    }
    for partial in [r#"{"sockets":2}"#, "[2,12]"] {
        assert!(
            serde_json::from_str::<NodeTopology>(partial).is_err(),
            "{partial}"
        );
    }
}

/// A P-state ladder is checked where it is read, alone or inside a
/// `Node`, as `PStateTable::new` checks it; the shared ladder writes the
/// same bytes as the list it replaced.
#[test]
fn bad_pstate_table_fails_to_parse() {
    let ladder = r#"{"states":[1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9,2.0,2.1,2.2,2.3]}"#;
    let haswell = PStateTable::haswell();
    assert_eq!(
        serde_json::to_string(&haswell).expect("serialize ladder"),
        ladder
    );
    let back: PStateTable = serde_json::from_str(ladder).expect("deserialize ladder");
    assert_eq!(back, haswell);

    let node_json = serde_json::to_string(&Node::haswell()).expect("serialize node");
    assert_eq!(
        node_json,
        concat!(
            r#"{"topo":{"sockets":2,"cores_per_socket":12},"pstates":"#,
            r#"{"states":[1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9,2.0,2.1,2.2,2.3]},"#,
            r#""power":{"socket_base":18.0,"socket_idle":9.0,"core_static":1.5,"#,
            r#""core_dyn_coeff":0.575,"dram_base":3.0,"dram_load_max":13.5,"#,
            r#""peak_bw_per_socket":56.0,"efficiency":1.0,"min_duty":0.02},"#,
            r#""memory":{"peak_per_socket":56.0,"qpi_bandwidth":25.0,"remote_penalty":0.35},"#,
            r#""rapl":{"caps":{"cpu":1000000000.0,"dram":1000000000.0},"pkg":{"raw":0},"#,
            r#""dram":{"raw":0},"elapsed":0.0,"actuation_jitter":0.0}}"#
        )
    );
    let node: Node = serde_json::from_str(&node_json).expect("deserialize node");
    assert_eq!(node.pstates(), &haswell);

    for (bad, why) in [
        (r#"{"states":[]}"#, "P-state table must be non-empty"),
        (
            r#"{"states":[2.3,1.2]}"#,
            "P-states must be strictly ascending",
        ),
        (
            r#"{"states":[1.2,1.2]}"#,
            "P-states must be strictly ascending",
        ),
    ] {
        let err = serde_json::from_str::<PStateTable>(bad)
            .err()
            .map(|e| e.to_string());
        assert!(
            err.as_deref().is_some_and(|e| e.contains(why)),
            "{bad}: expected an error with {why:?}, got {err:?}"
        );
        let bad_node = node_json.replace(ladder, bad);
        assert!(
            serde_json::from_str::<Node>(&bad_node).is_err(),
            "{bad_node}"
        );
    }
    for partial in ["{}", "[1.2,2.3]"] {
        assert!(
            serde_json::from_str::<PStateTable>(partial).is_err(),
            "{partial}"
        );
    }
}

#[test]
fn placement_json_matches_the_vec_form_and_roundtrips() {
    let testbed = Placement::resolve(&NodeTopology::haswell_2x12(), 16, AffinityPolicy::Compact);
    assert_eq!(
        serde_json::to_string(&testbed).expect("serialize placement"),
        r#"{"policy":"Compact","active_per_socket":[12,4]}"#
    );
    for sockets in 1..=MAX_SOCKETS {
        let topo = NodeTopology::new(sockets, 3);
        for threads in 1..=topo.total_cores() {
            for policy in AffinityPolicy::ALL {
                let p = Placement::resolve(&topo, threads, policy);
                let json = serde_json::to_string(&p).expect("serialize placement");
                assert_eq!(json, vec_form_json(policy, p.active_per_socket().to_vec()));
                let back: Placement = serde_json::from_str(&json).expect("deserialize placement");
                assert_eq!(back, p);
            }
        }
    }
    let too_wide = vec_form_json(AffinityPolicy::Scatter, vec![1; MAX_SOCKETS + 1]);
    assert!(serde_json::from_str::<Placement>(&too_wide).is_err());
}
