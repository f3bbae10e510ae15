(* The paper's claims at the quick scale: every experiment table of
   EXPERIMENTS.md must pass each check it declares. E1's grid covers
   Lemma 2.2 at k = 2, 8, 32, 128, 512 and E7's covers Claim 5.5 at
   n = 8, 16, 32, 64, 128, 256, 1024, 4096, 65536 and 2^20 (among
   others); E2 and E3 run their full grids, up to k = 4096. The table
   checks themselves are exercised on hand-made
   tables first. *)

open Claims.Table

let sample =
  {
    caption = "";
    columns = [ "k"; "steps"; "bound" ];
    rows =
      [
        ("2", [ Float (1, 3.0); Int 4 ]);
        ("4", [ Float (1, 5.0); Int 6 ]);
        ("16", [ Float (1, 9.0); Missing ]);
        ("256", [ Float (1, 17.0); Int 20 ]);
      ];
    checks = [];
  }

let passes c = Result.is_ok (evaluate sample c)

let test_compare () =
  Alcotest.(check bool) "bound" true (passes (Bound (Col "steps", Col "bound")));
  Alcotest.(check bool) "floor fails" false (passes (Floor (Col "steps", Col "bound")));
  Alcotest.(check bool) "const" true (passes (Floor (Col "steps", Const 3.0)));
  Alcotest.(check bool) "cell" false
    (passes (Bound (Col "steps", Cell ("4", "steps"))));
  let unmeasured = { sample with rows = [ ("16", [ Float (1, 9.0); Missing ]) ] } in
  Alcotest.(check bool) "nothing to compare" false
    (Result.is_ok (evaluate unmeasured (Bound (Col "steps", Col "bound"))));
  Alcotest.(check bool) "no such column" false
    (passes (Bound (Col "nope", Const 0.0)))

let test_order () =
  Alcotest.(check bool) "ascending" true (passes (Order ("steps", [ "2"; "16"; "256" ])));
  Alcotest.(check bool) "descending" false (passes (Order ("steps", [ "4"; "2" ])));
  Alcotest.(check bool) "missing cell" false (passes (Order ("bound", [ "2"; "16" ])))

let test_growth () =
  (* steps = 1 + 2 log2 k exactly: log fits, log log does not. *)
  Alcotest.(check bool) "log" true (passes (Growth (Col "steps", Log)));
  Alcotest.(check bool) "log log" false (passes (Growth (Col "steps", Log_log)));
  Alcotest.(check bool) "nothing faster than linear" false
    (passes (Growth (Col "steps", Linear)));
  let linear =
    {
      sample with
      rows = List.map (fun (k, _) -> (k, [ Int (int_of_string k); Missing ])) sample.rows;
    }
  in
  Alcotest.(check bool) "linear data is not log" false
    (Result.is_ok (evaluate linear (Growth (Col "steps", Log))))

let test_render () =
  let t =
    {
      sample with
      checks = [ Bound (Col "steps", Col "bound"); Order ("steps", [ "4"; "2" ]) ];
    }
  in
  let out = Fmt.str "%a" pp t in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check (list string)) "rendered"
    [
      "  k  steps  bound";
      "-----------------";
      "  2    3.0      4";
      "  4    5.0      6";
      " 16    9.0      -";
      "256   17.0     20";
      "PASS bound: steps <= bound";
      "FAIL order at steps: 4 <= 2: 4 (5) > 2 (3)";
      "";
    ]
    lines;
  Alcotest.(check (list string)) "failures" [ "order at steps: 4 <= 2" ] (failures t)

let quick (e : Claims.Experiments.experiment) () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let failed =
    Claims.Experiments.report ~domains:(Engine.default_domains ())
      Claims.Experiments.Quick ppf e
  in
  Format.pp_print_flush ppf ();
  if failed <> [] then
    Alcotest.failf "%s failed: %s@.%s" e.Claims.Experiments.id
      (String.concat "; " failed) (Buffer.contents buf)

let () =
  Alcotest.run "claims"
    [
      ( "table",
        [
          Alcotest.test_case "bound and floor" `Quick test_compare;
          Alcotest.test_case "order" `Quick test_order;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "quick",
        List.map
          (fun e -> Alcotest.test_case e.Claims.Experiments.id `Quick (quick e))
          Claims.Experiments.all );
    ]
