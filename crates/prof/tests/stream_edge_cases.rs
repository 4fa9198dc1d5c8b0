//! Event-stream edge cases for the `mss-prof` parser: everything a live
//! NDJSON stream can throw at it — non-finite literals, a crash mid-write,
//! an empty file, duplicated ids — must come back as a structured `Err`
//! naming the offending line, never a panic. Each case runs under
//! `catch_unwind` so a panic is reported as the distinct failure it is.

use mss_prof::{Report, Value};

const META_EVENTS: &str =
    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"events\",\"dropped_events\":0}";
const META_METRICS: &str =
    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}";

fn progress_line(seq: u64, done: u64, total: u64) -> String {
    format!(
        "{{\"type\":\"bus\",\"kind\":\"progress\",\"seq\":{seq},\"tid\":0,\"t_seconds\":1e-1,\
         \"sweep\":\"sw\",\"done\":{done},\"total\":{total},\"retried\":0,\"budget_seconds\":null}}"
    )
}

/// Parses under `catch_unwind`, so "panicked" and "rejected" are told apart.
fn parse_caught(text: &str) -> Result<Report, String> {
    std::panic::catch_unwind(|| Report::parse_ndjson(text))
        .unwrap_or_else(|_| panic!("parser panicked on: {text:?}"))
}

#[test]
fn a_well_formed_event_stream_parses() {
    let text = format!(
        "{META_EVENTS}\n{}\n{}\n\
         {{\"type\":\"bus\",\"kind\":\"heartbeat\",\"seq\":2,\"tid\":1,\"t_seconds\":2e-1,\
          \"sweep\":\"sw\",\"worker\":1,\"tasks_done\":2,\"busy_seconds\":1e-1}}\n\
         {{\"type\":\"bus\",\"kind\":\"failure\",\"seq\":3,\"tid\":1,\"t_seconds\":3e-1,\
          \"sweep\":\"sw\",\"index\":5,\"attempts\":2,\"failure\":\"panicked\",\"message\":\"boom\"}}\n",
        progress_line(0, 1, 4),
        progress_line(1, 2, 4),
    );
    let report = parse_caught(&text).expect("valid stream");
    assert_eq!(report.meta.mode, "events");
    assert_eq!(report.bus.len(), 4);
    assert_eq!(report.bus[0].kind, "progress");
    assert_eq!(report.bus[0].u64_field("done"), Some(1));
    assert_eq!(report.bus[3].str_field("failure"), Some("panicked"));
}

#[test]
fn nan_and_inf_literals_are_rejected_not_parsed() {
    // JSON has no NaN/Infinity tokens; a writer that leaks them must be
    // caught at the lexer, not silently coerced.
    for bad in ["NaN", "-NaN", "Infinity", "-Infinity", "inf", "1e999x"] {
        let line = format!(
            "{{\"type\":\"bus\",\"kind\":\"gauge_set\",\"seq\":0,\"tid\":0,\
             \"t_seconds\":0e0,\"name\":\"g\",\"value\":{bad}}}"
        );
        let text = format!("{META_EVENTS}\n{line}\n");
        let err = parse_caught(&text).expect_err(&format!("{bad} must be rejected"));
        assert!(err.contains("line 2"), "error must name the line: {err}");
    }
    // The writer's spelling of non-finite — null — stays accepted.
    let ok = format!(
        "{META_EVENTS}\n{{\"type\":\"bus\",\"kind\":\"gauge_set\",\"seq\":0,\"tid\":0,\
         \"t_seconds\":0e0,\"name\":\"g\",\"value\":null}}\n"
    );
    parse_caught(&ok).expect("null gauge value is the non-finite spelling");
}

#[test]
fn torn_final_line_is_a_structured_error() {
    // A crash mid-write leaves the last line truncated at an arbitrary
    // byte. Every prefix cut of a valid line must parse as an error (or, if
    // the cut lands exactly on the newline boundary, succeed) — never panic.
    let full = format!(
        "{META_EVENTS}\n{}\n{}\n",
        progress_line(0, 1, 4),
        progress_line(1, 2, 4)
    );
    let last_line_start = full[..full.len() - 1].rfind('\n').unwrap() + 1;
    for cut in last_line_start..full.len() - 1 {
        let torn = &full[..cut];
        match parse_caught(torn) {
            // Cut at the start of the final line: the stream simply ends a
            // line earlier and stays valid.
            Ok(report) => assert_eq!(report.bus.len(), 1, "cut at {cut}"),
            Err(err) => assert!(err.contains("line 3"), "cut at {cut}: {err}"),
        }
    }
}

#[test]
fn empty_and_meta_less_streams_are_structured_errors() {
    let err = parse_caught("").expect_err("empty stream");
    assert!(err.contains("no meta line"), "{err}");
    let err = parse_caught(&format!("{}\n", progress_line(0, 1, 2))).expect_err("no meta");
    assert!(err.contains("meta"), "{err}");
    let err = parse_caught("\n").expect_err("blank line only");
    assert!(err.contains("blank"), "{err}");
}

#[test]
fn duplicate_ids_are_structured_errors() {
    // Duplicate span paths.
    let span = "{\"type\":\"span\",\"path\":\"p\",\"count\":1,\"total_seconds\":1e-3,\
                \"self_seconds\":1e-3,\"min_seconds\":1e-3,\"max_seconds\":1e-3,\
                \"by_thread\":[[0,1,1e-3]]}";
    let text = format!("{META_METRICS}\n{span}\n{span}\n");
    let err = parse_caught(&text).expect_err("duplicate span");
    assert!(err.contains("duplicate span"), "{err}");

    // Duplicate gauge names.
    let gauge = "{\"type\":\"gauge\",\"name\":\"g\",\"value\":1e0}";
    let text = format!("{META_METRICS}\n{gauge}\n{gauge}\n");
    let err = parse_caught(&text).expect_err("duplicate gauge");
    assert!(err.contains("duplicate gauge"), "{err}");

    // Duplicate meta.
    let text = format!("{META_METRICS}\n{META_METRICS}\n");
    let err = parse_caught(&text).expect_err("duplicate meta");
    assert!(
        err.contains("duplicate meta") || err.contains("first line"),
        "{err}"
    );
}

#[test]
fn bus_lines_are_fenced_to_events_mode_and_schema_3() {
    // Bus line in a metrics-mode report: rejected.
    let text = format!("{META_METRICS}\n{}\n", progress_line(0, 1, 2));
    let err = parse_caught(&text).expect_err("bus outside events mode");
    assert!(err.contains("events"), "{err}");

    // Gauge line on a v2 report: rejected at the meta line (schema fence).
    let text = "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\n\
                {\"type\":\"gauge\",\"name\":\"g\",\"value\":1e0}\n";
    let err = parse_caught(text).expect_err("gauge on schema 2");
    assert!(
        err.contains("line 1: unsupported schema version 2"),
        "{err}"
    );

    // Mode "events" on a v2 report: rejected.
    let text = "{\"type\":\"meta\",\"schema\":2,\"mode\":\"events\",\"dropped_events\":0}\n";
    assert!(parse_caught(text).is_err(), "events mode needs schema 3");

    // An events file carrying aggregate lines: rejected.
    let text = format!("{META_EVENTS}\n{{\"type\":\"counter\",\"name\":\"c\",\"value\":1}}\n");
    let err = parse_caught(&text).expect_err("aggregates in events file");
    assert!(err.contains("aggregate"), "{err}");
}

#[test]
fn malformed_bus_payloads_are_structured_errors() {
    let cases: &[(&str, &str)] = &[
        (
            "{\"type\":\"bus\",\"kind\":\"teleport\",\"seq\":0,\"tid\":0,\"t_seconds\":0e0}",
            "unknown kind",
        ),
        (
            "{\"type\":\"bus\",\"kind\":\"progress\",\"seq\":0,\"tid\":0,\"t_seconds\":0e0,\
             \"sweep\":\"s\",\"done\":9,\"total\":4,\"retried\":0,\"budget_seconds\":null}",
            "done beyond total",
        ),
        (
            "{\"type\":\"bus\",\"kind\":\"progress\",\"seq\":0,\"tid\":0,\"t_seconds\":0e0,\
             \"sweep\":\"s\",\"done\":1}",
            "missing required fields",
        ),
        (
            "{\"type\":\"bus\",\"kind\":\"heartbeat\",\"seq\":0,\"tid\":99999999999,\
             \"t_seconds\":0e0,\"sweep\":\"s\",\"worker\":0,\"tasks_done\":0,\"busy_seconds\":0e0}",
            "tid out of u32 range",
        ),
        (
            "{\"type\":\"bus\",\"kind\":\"failure\",\"seq\":0,\"tid\":0,\"t_seconds\":null,\
             \"sweep\":\"s\",\"index\":0,\"attempts\":1,\"failure\":\"failed\",\"message\":\"m\"}",
            "null timestamp",
        ),
    ];
    for (line, why) in cases {
        let text = format!("{META_EVENTS}\n{line}\n");
        let err = parse_caught(&text).expect_err(&format!("must reject: {why}"));
        assert!(err.contains("line 2"), "{why}: {err}");
    }
}

#[test]
fn a_real_flight_dump_round_trips_through_validate() {
    // Produce a genuine flight-recorder dump via the obs bus and prove the
    // parser accepts it — the exact contract `mss_report validate` relies
    // on for chaos artifacts.
    let bus = mss_obs::events::EventBus::new(true, None);
    bus.publish(mss_obs::events::EventPayload::Progress {
        sweep: "edge".into(),
        done: 1,
        total: 2,
        retried: 0,
        budget_seconds: Some(0.5),
    });
    bus.publish(mss_obs::events::EventPayload::Failure {
        sweep: "edge".into(),
        index: 1,
        attempts: 1,
        kind: "deadline_exceeded".into(),
        message: "sweep deadline hit".into(),
    });
    let path = bus
        .dump_flight("prof_edge_case", "unit test")
        .expect("flight dump");
    let text = std::fs::read_to_string(&path).unwrap();
    let report = parse_caught(&text).expect("flight dump validates");
    assert_eq!(report.meta.mode, "events");
    assert_eq!(report.bus.len(), 2);
    std::fs::remove_file(path).ok();

    // And sanity-check the raw JSON value layer used throughout.
    assert!(Value::parse("{\"a\":1}").is_ok());
    assert!(Value::parse("{\"a\":NaN}").is_err());
}
