(* Tests for Core.Config validation. *)

let test_default_valid () =
  Alcotest.(check bool) "default" true (Core.Config.validate Core.Config.default = Ok ())

let expect_invalid name cfg =
  Alcotest.(check bool) name true (Result.is_error (Core.Config.validate cfg))

let test_invalid_fields () =
  expect_invalid "nodes" { Core.Config.default with Core.Config.node_count = 0 };
  expect_invalid "page size" { Core.Config.default with Core.Config.page_size = -1 };
  expect_invalid "bandwidth"
    {
      Core.Config.default with
      Core.Config.link = { Sim.Network.bandwidth_bps = 0.0; software_cost_us = 1.0 };
    };
  expect_invalid "software cost"
    {
      Core.Config.default with
      Core.Config.link = { Sim.Network.bandwidth_bps = 1e8; software_cost_us = -1.0 };
    };
  expect_invalid "abort probability"
    { Core.Config.default with Core.Config.abort_probability = 1.5 };
  expect_invalid "timeout above the backoff cap"
    {
      Core.Config.default with
      Core.Config.request_timeout_us = Core.Config.retransmit_backoff_cap_us +. 1.0;
    }

let test_fault_fields () =
  expect_invalid "timeout zero" { Core.Config.default with Core.Config.request_timeout_us = 0.0 };
  expect_invalid "timeout negative"
    { Core.Config.default with Core.Config.request_timeout_us = -100.0 };
  expect_invalid "retransmits" { Core.Config.default with Core.Config.max_retransmits = -1 };
  (* An embedded fault config is validated too. *)
  expect_invalid "fault drop out of range"
    {
      Core.Config.default with
      Core.Config.faults = Some { Sim.Fault.none with Sim.Fault.drop_probability = 1.5 };
    };
  expect_invalid "fault dup out of range"
    {
      Core.Config.default with
      Core.Config.faults = Some { Sim.Fault.none with Sim.Fault.duplicate_probability = -0.1 };
    };
  expect_invalid "fault jitter negative"
    {
      Core.Config.default with
      Core.Config.faults = Some { Sim.Fault.none with Sim.Fault.delay_jitter_us = -5.0 };
    };
  expect_invalid "fault window inverted"
    {
      Core.Config.default with
      Core.Config.faults =
        Some
          {
            Sim.Fault.none with
            Sim.Fault.windows =
              [ { Sim.Fault.w_node = 0; w_kind = Sim.Fault.Pause; w_from_us = 9.0; w_until_us = 1.0 } ];
          };
    };
  let active =
    {
      Core.Config.default with
      Core.Config.faults =
        Some
          {
            Sim.Fault.seed = 3;
            drop_probability = 0.1;
            duplicate_probability = 0.1;
            delay_jitter_us = 50.0;
            windows =
              [ { Sim.Fault.w_node = 1; w_kind = Sim.Fault.Crash; w_from_us = 10.0; w_until_us = 20.0 } ];
            link_windows = [];
          };
    }
  in
  Alcotest.(check bool) "valid active faults" true (Core.Config.validate active = Ok ());
  (* pp surfaces the fault line only for an active config. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let active_s = Format.asprintf "%a" Core.Config.pp active in
  Alcotest.(check bool) "pp shows faults" true (contains active_s "faults");
  let default_s = Format.asprintf "%a" Core.Config.pp Core.Config.default in
  Alcotest.(check bool) "pp silent when fault-free" false (contains default_s "faults")

let test_pp_mentions_protocol () =
  let s = Format.asprintf "%a" Core.Config.pp Core.Config.default in
  Alcotest.(check bool) "prints" true (String.length s > 0)

let tests =
  [
    ( "config",
      [
        Alcotest.test_case "default valid" `Quick test_default_valid;
        Alcotest.test_case "invalid fields" `Quick test_invalid_fields;
        Alcotest.test_case "fault fields" `Quick test_fault_fields;
        Alcotest.test_case "pp" `Quick test_pp_mentions_protocol;
      ] );
  ]
