(* Tests for Pctl, Pctl_parser and Trace_logic. *)

open Pctl

let formula =
  Alcotest.testable (fun fmt f -> Format.pp_print_string fmt (Pctl.to_string f))
    ( = )

let parse = Pctl_parser.parse

let test_parse_atoms () =
  Alcotest.check formula "true" True (parse "true");
  Alcotest.check formula "false" False (parse "false");
  Alcotest.check formula "prop" (Prop "safe") (parse "safe");
  Alcotest.check formula "not" (Not (Prop "safe")) (parse "!safe");
  Alcotest.check formula "parens" (Prop "a") (parse "((a))")

let test_parse_boolean () =
  Alcotest.check formula "and" (And (Prop "a", Prop "b")) (parse "a & b");
  Alcotest.check formula "or" (Or (Prop "a", Prop "b")) (parse "a | b");
  Alcotest.check formula "implies" (Implies (Prop "a", Prop "b")) (parse "a => b");
  (* precedence: ! > & > | > => *)
  Alcotest.check formula "prec 1"
    (Or (And (Prop "a", Prop "b"), Prop "c"))
    (parse "a & b | c");
  Alcotest.check formula "prec 2"
    (Implies (Or (Prop "a", Prop "b"), Prop "c"))
    (parse "a | b => c");
  Alcotest.check formula "not binds tight"
    (And (Not (Prop "a"), Prop "b"))
    (parse "!a & b");
  (* => is right-associative *)
  Alcotest.check formula "implies assoc"
    (Implies (Prop "a", Implies (Prop "b", Prop "c")))
    (parse "a => b => c")

let test_parse_prob () =
  Alcotest.check formula "lane change (paper §I)"
    (Prob (Gt, 0.99, Eventually (Or (Prop "changedLane", Prop "reducedSpeed"))))
    (parse "P>0.99 [ F changedLane | reducedSpeed ]");
  Alcotest.check formula "next" (Prob (Ge, 0.5, Next (Prop "a"))) (parse "P>=0.5 [ X a ]");
  Alcotest.check formula "until"
    (Prob (Lt, 0.05, Until (Prop "a", Prop "b")))
    (parse "P<0.05 [ a U b ]");
  Alcotest.check formula "bounded until"
    (Prob (Lt, 0.05, Bounded_until (Not (Prop "safe"), Prop "crash", 10)))
    (parse "P<0.05 [ !safe U<=10 crash ]");
  Alcotest.check formula "bounded eventually"
    (Prob (Ge, 0.9, Bounded_eventually (Prop "goal", 7)))
    (parse "P>=0.9 [ F<=7 goal ]");
  Alcotest.check formula "globally"
    (Prob (Ge, 0.99, Globally (Prop "safe")))
    (parse "P>=0.99 [ G safe ]");
  Alcotest.check formula "bounded globally"
    (Prob (Ge, 0.99, Bounded_globally (Prop "safe", 3)))
    (parse "P>=0.99 [ G<=3 safe ]")

let test_parse_reward () =
  (* The WSN property: R{attempts} <= 40 [ F delivered ] *)
  Alcotest.check formula "reward"
    (Reward (Le, 40.0, Prop "delivered"))
    (parse "R<=40 [ F delivered ]");
  Alcotest.check formula "reward strict"
    (Reward (Lt, 19.0, Prop "delivered"))
    (parse "R<19 [ F delivered ]")

let test_parse_errors () =
  let fails s =
    match Pctl_parser.parse_opt s with
    | None -> ()
    | Some f -> Alcotest.failf "%S should not parse, got %s" s (Pctl.to_string f)
  in
  fails "";
  fails "P>0.99";
  fails "P>1.5 [ F a ]";
  fails "P>0.5 [ a ]";
  fails "R<=40 [ G a ]";
  fails "a &";
  fails "a b";
  fails "P>0.5 [ F<=2.5 a ]";
  fails "@@";
  fails "(a"

let test_roundtrip () =
  let cases =
    [ "P>0.99 [ F changedLane | reducedSpeed ]";
      "R<=40 [ F delivered ]";
      "a & b | !c => d";
      "P<0.05 [ !safe U<=10 crash ]";
      "P>=0.9 [ G safe ]";
    ]
  in
  List.iter
    (fun s ->
       let f = parse s in
       Alcotest.check formula
         (Printf.sprintf "roundtrip %s" s)
         f
         (parse (Pctl.to_string f)))
    cases

let test_helpers () =
  Alcotest.(check bool) "ge" true (compare_with Ge 0.5 0.5);
  Alcotest.(check bool) "gt" false (compare_with Gt 0.5 0.5);
  Alcotest.(check bool) "lt" true (compare_with Lt 0.4 0.5);
  Alcotest.(check bool) "le" false (compare_with Le 0.6 0.5);
  Alcotest.(check bool) "negate" true (negate_cmp Ge = Lt && negate_cmp Lt = Ge);
  Alcotest.(check bool) "flip" true (flip_cmp Ge = Le && flip_cmp Gt = Lt);
  Alcotest.(check (list string)) "atomic props" [ "a"; "b"; "c" ]
    (atomic_props (parse "P>0.5 [ a U b ] & c & a"));
  Alcotest.(check bool) "probabilistic" true (is_probabilistic (parse "P>0.5 [ X a ]"));
  Alcotest.(check bool) "not probabilistic" false (is_probabilistic (parse "a & b"))

(* ---------------- Trace_logic ---------------- *)

module TL = Trace_logic

let no_labels _ _ = false

(* car-style trace: (0,fwd)(1,left)(6,fwd) final 7 *)
let tr = Trace.make [ (0, "fwd"); (1, "left"); (6, "fwd") ] 7

let test_tl_atoms () =
  Alcotest.(check bool) "state at 0" true
    (TL.eval ~labels:no_labels tr (TL.Atom (TL.State_is 0)));
  Alcotest.(check bool) "state not" false
    (TL.eval ~labels:no_labels tr (TL.Atom (TL.State_is 1)));
  Alcotest.(check bool) "action at 0" true
    (TL.eval ~labels:no_labels tr (TL.Atom (TL.Action_is "fwd")));
  Alcotest.(check bool) "step" true
    (TL.eval_at ~labels:no_labels tr 1 (TL.Atom (TL.Step (1, "left"))));
  (* final position: actions are false *)
  Alcotest.(check bool) "no action at final" false
    (TL.eval_at ~labels:no_labels tr 3 (TL.Atom (TL.Action_is "fwd")));
  let labels s name = name = "left_lane" && s >= 5 && s <= 9 in
  Alcotest.(check bool) "label" true
    (TL.eval_at ~labels tr 2 (TL.Atom (TL.Label "left_lane")));
  Alcotest.(check bool) "label false" false
    (TL.eval_at ~labels tr 0 (TL.Atom (TL.Label "left_lane")))

let test_tl_temporal () =
  Alcotest.(check bool) "eventually 7" true
    (TL.eval ~labels:no_labels tr (TL.Eventually (TL.Atom (TL.State_is 7))));
  Alcotest.(check bool) "eventually 9" false
    (TL.eval ~labels:no_labels tr (TL.Eventually (TL.Atom (TL.State_is 9))));
  Alcotest.(check bool) "never 2 holds" true
    (TL.eval ~labels:no_labels tr (TL.avoids_state 2));
  Alcotest.(check bool) "never 6 fails" false
    (TL.eval ~labels:no_labels tr (TL.avoids_state 6));
  Alcotest.(check bool) "avoids_states" true
    (TL.eval ~labels:no_labels tr (TL.avoids_states [ 2; 10 ]));
  Alcotest.(check bool) "next" true
    (TL.eval ~labels:no_labels tr (TL.Next (TL.Atom (TL.State_is 1))));
  (* strong next at the final position is false *)
  Alcotest.(check bool) "next at end" false
    (TL.eval_at ~labels:no_labels tr 3 (TL.Next TL.True));
  Alcotest.(check bool) "until" true
    (TL.eval ~labels:no_labels tr
       (TL.Until (TL.Not (TL.Atom (TL.State_is 7)), TL.Atom (TL.State_is 6))));
  Alcotest.(check bool) "until needs witness" false
    (TL.eval ~labels:no_labels tr
       (TL.Until (TL.True, TL.Atom (TL.State_is 9))));
  Alcotest.(check bool) "takes_action_in sat" true
    (TL.eval ~labels:no_labels tr (TL.takes_action_in 1 "left"));
  Alcotest.(check bool) "takes_action_in viol" false
    (TL.eval ~labels:no_labels tr (TL.takes_action_in 1 "fwd"))

let test_tl_indicator_violations () =
  Alcotest.(check (float 0.0)) "indicator sat" 1.0
    (TL.indicator ~labels:no_labels tr (TL.avoids_state 2));
  Alcotest.(check (float 0.0)) "indicator viol" 0.0
    (TL.indicator ~labels:no_labels tr (TL.avoids_state 6));
  (* Always(state<>6) fails at positions 0,1,2 (suffixes containing 6) *)
  Alcotest.(check int) "violation count" 3
    (TL.violation_count ~labels:no_labels tr (TL.avoids_state 6));
  Alcotest.(check int) "no violations" 0
    (TL.violation_count ~labels:no_labels tr TL.True);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Trace_logic: position 9 out of range") (fun () ->
        ignore (TL.eval_at ~labels:no_labels tr 9 TL.True))

let test_tl_print () =
  Alcotest.(check string) "print" "G !state=2"
    (TL.to_string (TL.avoids_state 2));
  Alcotest.(check string) "print implies"
    "G (state=1 => action=left)"
    (TL.to_string (TL.takes_action_in 1 "left"))

(* Properties: parser inverse of printer on random formulas. *)

let gen_formula =
  let open QCheck2.Gen in
  let atom =
    oneof
      [ return True;
        return False;
        map (fun i -> Prop (Printf.sprintf "p%d" i)) (int_range 0 4);
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      let sub = go (depth - 1) in
      oneof
        [ atom;
          map (fun f -> Not f) sub;
          map2 (fun a b -> And (a, b)) sub sub;
          map2 (fun a b -> Or (a, b)) sub sub;
          map2 (fun a b -> Implies (a, b)) sub sub;
          map2
            (fun b f -> Prob (Ge, b, Eventually f))
            (float_bound_inclusive 1.0) sub;
          map2
            (fun b (f, g) -> Prob (Lt, b, Until (f, g)))
            (float_bound_inclusive 1.0) (pair sub sub);
          map (fun f -> Reward (Le, 40.0, f)) sub;
        ]
  in
  go 3

let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"print/parse roundtrip" ~count:300
         ~print:Pctl.to_string gen_formula (fun f ->
             Pctl_parser.parse (Pctl.to_string f) = f));
  ]

let () =
  Alcotest.run "logic"
    [ ( "parser",
        [ Alcotest.test_case "atoms" `Quick test_parse_atoms;
          Alcotest.test_case "boolean" `Quick test_parse_boolean;
          Alcotest.test_case "prob" `Quick test_parse_prob;
          Alcotest.test_case "reward" `Quick test_parse_reward;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "helpers" `Quick test_helpers;
        ] );
      ( "trace logic",
        [ Alcotest.test_case "atoms" `Quick test_tl_atoms;
          Alcotest.test_case "temporal" `Quick test_tl_temporal;
          Alcotest.test_case "indicator/violations" `Quick test_tl_indicator_violations;
          Alcotest.test_case "printing" `Quick test_tl_print;
        ] );
      ("properties", props);
    ]
