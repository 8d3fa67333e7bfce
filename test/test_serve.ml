(* The durable job queue behind `gpuwmm serve`: event codec round-trip,
   journal torn-tail tolerance, the lease state machine (ordering,
   backoff boundaries), and the crash-replay property — cut the journal
   anywhere, revoke the in-flight leases the way a restarting daemon
   does, and the completed-shard set is exactly what the surviving
   events recorded.  Then the one worker supervisor that drives that
   state machine (Procs), with /bin/sh workers and stub ledger checks. *)

let tmp_journal () =
  let f = Filename.temp_file "gpuwmm-queue" ".jsonl" in
  Sys.remove f;
  f

let with_journal f =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)

let spec_gen =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let* id = map (Printf.sprintf "job-%d") (int_range 1 99) in
  let* chip = oneofl [ "K20"; "M60"; "GTX540" ] in
  let* app = option name in
  let* runs = int_range 1 500 in
  let* env = oneofl [ "sys-str+"; "sys"; "base" ] in
  let* seed = int_range 0 10_000 in
  let* workers = int_range 1 8 in
  let* priority = int_range (-5) 5 in
  let* max_attempts = int_range 1 5 in
  return
    { Core.Queue.id; kind = "test"; chip; app; runs; env; seed; workers;
      priority; max_attempts }

let event_gen : Core.Queue.event QCheck.Gen.t =
  let open QCheck.Gen in
  let ev (e : Core.Queue.event) = return e in
  let finite_pos = map (fun f -> Float.abs f) (float_bound_exclusive 1e6) in
  let id = map (Printf.sprintf "job-%d") (int_range 1 99) in
  let shard = int_range 1 8 in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let* t = finite_pos in
  oneof
    [ map (fun spec -> Core.Queue.Submitted { t; spec }) spec_gen;
      (let* i = id in
       let* k = shard in
       let* pid = int_range 2 99999 in
       let* attempt = int_range 1 5 in
       let* deadline = finite_pos in
       ev (Core.Queue.Leased { t; id = i; shard = k; pid; attempt; deadline }));
      (let* i = id in
       let* k = shard in
       let* degraded = bool in
       ev (Core.Queue.Shard_done { t; id = i; shard = k; degraded }));
      (let* i = id in
       let* k = shard in
       let* attempt = int_range 1 5 in
       let* reason = name in
       let* not_before = finite_pos in
       ev (Core.Queue.Requeued
            { t; id = i; shard = k; attempt; reason; not_before }));
      (let* i = id in
       let* k = shard in
       let* reason = name in
       ev (Core.Queue.Quarantined { t; id = i; shard = k; reason }));
      (let* i = id in
       let* status = oneofl [ "done"; "degraded"; "failed" ] in
       let* ledger = option name in
       ev (Core.Queue.Finished { t; id = i; status; ledger })) ]

let prop_event_round_trip =
  QCheck.Test.make ~name:"Queue: of_json (to_json ev) = Ok ev" ~count:500
    (QCheck.make event_gen)
    (fun ev ->
      (* Through the actual printer/parser pair, like the journal. *)
      match
        Core.Json.of_string (Core.Json.to_string (Core.Queue.event_to_json ev))
      with
      | Error _ -> false
      | Ok j -> Core.Queue.event_of_json j = Ok ev)

let sample_spec =
  { Core.Queue.id = "job-1"; kind = "test"; chip = "K20"; app = Some "spin";
    runs = 40; env = "sys-str+"; seed = 7; workers = 2; priority = 0;
    max_attempts = 3 }

let sample_events : Core.Queue.event list =
  [ Core.Queue.Submitted { t = 1.0; spec = sample_spec };
    Core.Queue.Leased
      { t = 2.0; id = "job-1"; shard = 1; pid = 42; attempt = 1;
        deadline = 32.0 };
    Core.Queue.Shard_done { t = 3.0; id = "job-1"; shard = 1; degraded = false }
  ]

let test_journal_round_trip () =
  with_journal (fun path ->
      Alcotest.(check bool) "missing journal is empty" true
        (Core.Queue.load path = Ok ([], false));
      List.iter (Core.Queue.append ~path) sample_events;
      Alcotest.(check bool) "events load, oldest first" true
        (Core.Queue.load path = Ok (sample_events, false)))

let test_journal_torn_tail () =
  with_journal (fun path ->
      List.iter (Core.Queue.append ~path) sample_events;
      (* Killed mid-write: the final line is half a record. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"ev\":\"lease\",\"t\":9";
      close_out oc;
      Alcotest.(check bool) "torn tail dropped, torn flag set" true
        (Core.Queue.load path = Ok (sample_events, true)))

let test_journal_append_after_torn () =
  with_journal (fun path ->
      List.iter (Core.Queue.append ~path) sample_events;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"ev\":\"lease\",\"t\":9";
      close_out oc;
      (* The restarting daemon's path: load flags the torn tail, and the
         first append cuts the fragment off before it writes, so it is
         never buried as a fatal mid-file line. *)
      Alcotest.(check bool) "torn flagged on load" true
        (Core.Queue.load path = Ok (sample_events, true));
      let extra =
        Core.Queue.Finished
          { t = 4.0; id = "job-1"; status = "done"; ledger = None }
      in
      Core.Queue.append ~path extra;
      Alcotest.(check bool) "append after a torn tail reloads cleanly" true
        (Core.Queue.load path = Ok (sample_events @ [ extra ], false)))

let test_journal_append_no_trailing_newline () =
  with_journal (fun path ->
      List.iter (Core.Queue.append ~path) sample_events;
      (* A write cut just before its '\n' leaves a *valid* last line
         with no trailing newline — load reports torn=false, and append
         must complete that line rather than glue onto it. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd ((Unix.fstat fd).Unix.st_size - 1);
      Unix.close fd;
      Alcotest.(check bool) "newline-less valid tail still loads" true
        (Core.Queue.load path = Ok (sample_events, false));
      let extra =
        Core.Queue.Finished
          { t = 4.0; id = "job-1"; status = "done"; ledger = None }
      in
      Core.Queue.append ~path extra;
      Alcotest.(check bool) "append starts a fresh line" true
        (Core.Queue.load path = Ok (sample_events @ [ extra ], false)))

(* Cut the journal at any byte, append one more event, reload: the
   events whose text lies wholly before the cut survive, then the new
   one, and the reload neither fails nor reports a torn tail. *)
let prop_cut_anywhere =
  QCheck.Test.make ~name:"journal: cut anywhere, append, reload" ~count:200
    QCheck.(
      make
        Gen.(triple (list_size (int_range 1 6) event_gen) event_gen
               (int_bound 1_000_000)))
    (fun (evs, extra, cut) ->
      with_journal (fun path ->
          let expect =
            Test_util.cut_and_append ~path ~append:(Core.Queue.append ~path)
              ~to_json:Core.Queue.event_to_json evs extra cut
          in
          Core.Queue.load path = Ok (expect, false)))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_journal_rejects_corrupt_middle () =
  with_journal (fun path ->
      Core.Queue.append ~path (List.hd sample_events);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "not json at all\n";
      close_out oc;
      Core.Queue.append ~path (List.nth sample_events 1);
      match Core.Queue.load path with
      | Error e ->
        Alcotest.(check bool) "error names the journal line" true
          (contains ~sub:"line 2" e)
      | Ok _ -> Alcotest.fail "corrupt middle line must fail closed")

(* ------------------------------------------------------------------ *)
(* The lease state machine                                              *)

let submit ?(id = "job-1") ?(workers = 2) ?(priority = 0) st =
  Core.Queue.apply st
    (Core.Queue.Submitted
       { t = 0.0; spec = { sample_spec with Core.Queue.id; workers; priority } })

let test_next_lease_ordering () =
  let st = Core.Queue.empty in
  let st = submit ~id:"job-1" ~workers:2 st in
  let st = submit ~id:"job-2" ~workers:1 ~priority:5 st in
  (* Priority first... *)
  (match Core.Queue.next_lease ~now:10.0 st with
  | Some (job, 1) when job.Core.Queue.spec.Core.Queue.id = "job-2" -> ()
  | _ -> Alcotest.fail "high-priority job should lease first");
  (* ...then FIFO at equal priority, lowest shard index. *)
  let st =
    Core.Queue.apply st
      (Core.Queue.Leased
         { t = 10.0; id = "job-2"; shard = 1; pid = 1; attempt = 1;
           deadline = 40.0 })
  in
  (match Core.Queue.next_lease ~now:10.0 st with
  | Some (job, 1) when job.Core.Queue.spec.Core.Queue.id = "job-1" -> ()
  | _ -> Alcotest.fail "earliest submission, lowest shard next");
  (* Backoff gates: a shard requeued with not_before in the future is
     invisible until the boundary passes; at exactly not_before it is
     leasable again. *)
  let st =
    Core.Queue.apply st
      (Core.Queue.Requeued
         { t = 11.0; id = "job-1"; shard = 1; attempt = 1; reason = "x";
           not_before = 20.0 })
  in
  (match Core.Queue.next_lease ~now:19.99 st with
  | Some (job, k) ->
    Alcotest.(check (pair string int))
      "backed-off shard skipped before its gate"
      ("job-1", 2)
      (job.Core.Queue.spec.Core.Queue.id, k)
  | None -> Alcotest.fail "shard 2 should still be leasable");
  let st2 =
    Core.Queue.apply st
      (Core.Queue.Leased
         { t = 12.0; id = "job-1"; shard = 2; pid = 2; attempt = 1;
           deadline = 42.0 })
  in
  Alcotest.(check bool) "nothing leasable inside the backoff window" true
    (Core.Queue.next_lease ~now:19.99 st2 = None);
  match Core.Queue.next_lease ~now:20.0 st2 with
  | Some (job, 1) when job.Core.Queue.spec.Core.Queue.id = "job-1" -> ()
  | _ -> Alcotest.fail "at not_before the shard is leasable again"

let test_backoff_schedule () =
  let base = 0.5 in
  let b a = Core.Queue.backoff_s ~base ~seed:7 ~attempt:a in
  (* Deterministic per (seed, attempt). *)
  Alcotest.(check (float 0.0)) "deterministic" (b 1) (b 1);
  (* Jitter stays within [0.5, 1.5) of the exponential envelope. *)
  for a = 1 to 12 do
    let envelope = base *. float_of_int (1 lsl Int.min (a - 1) 6) in
    let v = Core.Queue.backoff_s ~base ~seed:3 ~attempt:a in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within the jittered envelope" a)
      true
      (v >= 0.5 *. envelope && v < 1.5 *. envelope)
  done;
  (* The exponent caps: attempt 20 cannot exceed 64x base with jitter. *)
  Alcotest.(check bool) "capped exponent" true
    (Core.Queue.backoff_s ~base ~seed:11 ~attempt:20 < base *. 64.0 *. 1.5);
  (* Different seeds decorrelate (thundering-herd protection). *)
  Alcotest.(check bool) "seed-jittered" true
    (Core.Queue.backoff_s ~base ~seed:1 ~attempt:3
    <> Core.Queue.backoff_s ~base ~seed:2 ~attempt:3)

let test_apply_ignores_junk () =
  (* Replay must survive any journal a crashed daemon left behind:
     events naming unknown jobs or out-of-range shards are dropped. *)
  let st = submit Core.Queue.empty in
  let junk : Core.Queue.event list =
    [ Core.Queue.Leased
        { t = 1.0; id = "job-404"; shard = 1; pid = 9; attempt = 1;
          deadline = 2.0 };
      Core.Queue.Shard_done
        { t = 1.0; id = "job-1"; shard = 99; degraded = false };
      Core.Queue.Quarantined
        { t = 1.0; id = "nope"; shard = 1; reason = "r" } ]
  in
  let st' = List.fold_left Core.Queue.apply st junk in
  Alcotest.(check bool) "junk events leave the state intact" true
    (st'.Core.Queue.jobs = st.Core.Queue.jobs);
  Alcotest.(check int) "no quarantine counted for unknown jobs" 0
    st'.Core.Queue.quarantines

(* ------------------------------------------------------------------ *)
(* Crash replay: cut the journal anywhere, revoke in-flight leases the
   way a restarting daemon does, drive the rest to completion — every
   durably recorded completion survives and the job still finishes.     *)

(* Simulate a daemon life: lease ripe shards, flip a seeded coin per
   lease (worker completes vs crashes-and-requeues), until every shard
   of the submitted jobs is Done.  Returns the full journal. *)
let simulate ~seed ~specs =
  let rng = Gpusim.Rng.create seed in
  let events = ref [] in
  let st = ref Core.Queue.empty in
  let emit ev =
    events := ev :: !events;
    st := Core.Queue.apply !st ev
  in
  List.iter (fun spec -> emit (Core.Queue.Submitted { t = 0.0; spec })) specs;
  let now = ref 1.0 in
  let all_done () =
    List.for_all
      (fun (j : Core.Queue.job) ->
        Array.for_all
          (function Core.Queue.Done _ -> true | _ -> false)
          j.Core.Queue.shards)
      !st.Core.Queue.jobs
  in
  while not (all_done ()) do
    now := !now +. 1.0;
    (match Core.Queue.next_lease ~now:!now !st with
    | Some (job, k) ->
      let id = job.Core.Queue.spec.Core.Queue.id in
      let attempt =
        match Core.Queue.shard_get job k with
        | Some (Core.Queue.Pending { attempt; _ }) -> attempt + 1
        | _ -> 1
      in
      emit
        (Core.Queue.Leased
           { t = !now; id; shard = k; pid = 100 + k; attempt;
             deadline = !now +. 30.0 });
      if Gpusim.Rng.float rng < 0.6 then
        emit (Core.Queue.Shard_done { t = !now; id; shard = k; degraded = false })
      else
        emit
          (Core.Queue.Requeued
             { t = !now; id; shard = k; attempt; reason = "killed";
               not_before = !now })
    | None ->
      (* Everything ripe is leased; in this simulation a lease always
         settles immediately, so this cannot happen. *)
      ());
  done;
  List.rev !events

(* What a restarting daemon does to a replayed state: every in-flight
   lease is revoked back to Pending (the real daemon additionally
   checks the shard ledger — here there are no ledgers, so a revoked
   lease is always "not complete"). *)
let revoke st =
  List.fold_left
    (fun st (j : Core.Queue.job) ->
      let id = j.Core.Queue.spec.Core.Queue.id in
      snd
        (Array.fold_left
           (fun (k, st) s ->
             ( k + 1,
               match s with
               | Core.Queue.Leased { attempt; _ } ->
                 Core.Queue.apply st
                   (Core.Queue.Requeued
                      { t = 0.0; id; shard = k; attempt;
                        reason = "lease revoked on restart"; not_before = 0.0 })
               | _ -> st ))
           (1, st) j.Core.Queue.shards))
    st st.Core.Queue.jobs

let done_set st =
  List.concat_map
    (fun (j : Core.Queue.job) ->
      snd
        (Array.fold_left
           (fun (k, acc) s ->
             ( k + 1,
               match s with
               | Core.Queue.Done _ -> (j.Core.Queue.spec.Core.Queue.id, k) :: acc
               | _ -> acc ))
           (1, []) j.Core.Queue.shards))
    st.Core.Queue.jobs
  |> List.sort compare

let prop_kill_anywhere_keeps_completions =
  QCheck.Test.make
    ~name:"Queue: kill at any journal prefix, revoke, and no durable \
           completion is lost"
    ~count:60
    QCheck.(make Gen.(pair (int_range 1 1000) (int_range 0 1_000_000)))
    (fun (seed, cut_seed) ->
      let specs =
        [ { sample_spec with Core.Queue.id = "job-1"; workers = 3 };
          { sample_spec with Core.Queue.id = "job-2"; workers = 2;
            priority = 1 } ]
      in
      let journal = simulate ~seed ~specs in
      let n = List.length journal in
      (* The cut point is derived, not sampled, so shrinking stays
         meaningful. *)
      let cut = cut_seed mod (n + 1) in
      let prefix = List.filteri (fun i _ -> i < cut) journal in
      let replayed = Core.Queue.replay prefix in
      let recovered = revoke replayed in
      (* 1. Every Shard_done durably in the prefix survives recovery. *)
      let durable =
        List.filter_map
          (function
            | Core.Queue.Shard_done { id; shard; _ } -> Some (id, shard)
            | _ -> None)
          prefix
        |> List.sort_uniq compare
      in
      let after = done_set recovered in
      List.for_all (fun d -> List.mem d after) durable
      (* 2. Recovery leaves no shard stuck in Leased. *)
      && List.for_all
           (fun (j : Core.Queue.job) ->
             Array.for_all
               (function Core.Queue.Leased _ -> false | _ -> true)
               j.Core.Queue.shards)
           recovered.Core.Queue.jobs
      (* 3. The recovered queue still drives to full completion. *)
      &&
      let final = ref recovered in
      let now = ref 1e6 in
      let guard = ref 0 in
      let all_done st =
        st.Core.Queue.jobs <> []
        && List.for_all
             (fun (j : Core.Queue.job) ->
               Array.for_all
                 (function Core.Queue.Done _ -> true | _ -> false)
                 j.Core.Queue.shards)
             st.Core.Queue.jobs
      in
      (if prefix <> [] && !final.Core.Queue.jobs <> [] then
         while (not (all_done !final)) && !guard < 10_000 do
           incr guard;
           now := !now +. 1.0;
           match Core.Queue.next_lease ~now:!now !final with
           | None -> guard := 10_000
           | Some (job, k) ->
             let id = job.Core.Queue.spec.Core.Queue.id in
             final :=
               Core.Queue.apply !final
                 (Core.Queue.Shard_done
                    { t = !now; id; shard = k; degraded = false })
         done);
      prefix = [] || !final.Core.Queue.jobs = [] || all_done !final)

let test_stats_partition () =
  let st = submit ~workers:4 Core.Queue.empty in
  let st =
    Core.Queue.apply st
      (Core.Queue.Leased
         { t = 5.0; id = "job-1"; shard = 1; pid = 9; attempt = 1;
           deadline = 35.0 })
  in
  let st =
    Core.Queue.apply st
      (Core.Queue.Shard_done { t = 6.0; id = "job-1"; shard = 2; degraded = true })
  in
  let st =
    Core.Queue.apply st
      (Core.Queue.Quarantined { t = 7.0; id = "job-1"; shard = 3; reason = "r" })
  in
  let s = Core.Queue.stats ~now:10.0 st in
  Alcotest.(check (list int)) "states partition the shard set"
    [ 1; 1; 1; 1; 1; 0 ]
    [ s.Core.Queue.s_pending; s.Core.Queue.s_leased; s.Core.Queue.s_done;
      s.Core.Queue.s_quarantined; s.Core.Queue.s_active_jobs;
      s.Core.Queue.s_finished_jobs ];
  Alcotest.(check (float 1e-9)) "oldest lease age" 5.0
    s.Core.Queue.s_oldest_lease_age_s

(* ------------------------------------------------------------------ *)
(* The supervisor: real processes, fake workers                         *)

let tmp_dir () =
  let d = Filename.temp_file "gpuwmm-procs" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Sys.rmdir d

(* Descriptors this process holds. *)
let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

(* Drive a one-shard job through the lease loop until the shard is done
   or quarantined, alternating [Procs.tick] and [wait] (default
   [Procs.wait]).  The worker runs [script] under /bin/sh with [$1] a
   scratch directory; [check dir] stands in for the ledger check.
   Backoff base 0: a requeued shard is leasable again at once.  After
   [Procs.stop] the process must hold exactly the descriptors it held
   before [Procs.create].  Returns the emitted events (oldest first),
   the shard's final state and what the worker left in [$1/note], if
   anything. *)
let supervise ?(lease_s = infinity) ?(max_attempts = 3)
    ?(wait = Core.Procs.wait) ~script ~check () =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec = { sample_spec with Core.Queue.workers = 1; max_attempts } in
      let st =
        ref (Core.Queue.apply Core.Queue.empty
               (Core.Queue.Submitted { t = 0.0; spec }))
      in
      let events = ref [] in
      let emit ev =
        events := ev :: !events;
        st := Core.Queue.apply !st ev
      in
      let shard _ _ =
        { Core.Procs.argv = [ "sh"; "-c"; script; "sh"; dir ];
          ledger = Filename.concat dir "shard.jsonl";
          check = (fun () -> check dir) }
      in
      let fds = fd_count () in
      let sup =
        Core.Procs.create ~exe:"/bin/sh" ~max_workers:1 ~lease_s
          ~backoff_base_s:0.0
          ~state:(fun () -> !st)
          ~emit shard
      in
      let shard1 () = (List.hd !st.Core.Queue.jobs).Core.Queue.shards.(0) in
      let terminal () =
        match shard1 () with
        | Core.Queue.Done _ | Core.Queue.Quarantined _ -> true
        | Core.Queue.Pending _ | Core.Queue.Leased _ -> false
      in
      let give_up = Unix.gettimeofday () +. 20.0 in
      Fun.protect
        ~finally:(fun () -> Core.Procs.stop sup)
        (fun () ->
          while not (terminal ()) do
            if Unix.gettimeofday () > give_up then
              Alcotest.fail "the supervisor never settled the job";
            Core.Procs.tick sup;
            if not (terminal ()) then wait sup
          done);
      Alcotest.(check int) "no descriptor leaked" fds (fd_count ());
      let note = Filename.concat dir "note" in
      ( List.rev !events,
        shard1 (),
        if Sys.file_exists note then
          Some (String.trim (In_channel.with_open_bin note In_channel.input_all))
        else None ))

let requeue_reasons events =
  List.filter_map
    (function Core.Queue.Requeued { reason; _ } -> Some reason | _ -> None)
    events

let whole = Core.Procs.Whole { degraded = false }

(* A crash, then a clean exit: one requeue, and the second attempt is a
   respawn — GPUWMM_RESPAWN=1, with --resume <ledger> only when the
   check accepts the ledger prefix. *)
let test_crash_then_success () =
  let script =
    {|if [ -e "$1/ran" ]; then
  echo "${GPUWMM_RESPAWN:-0} $2 ${3#$1/}" > "$1/note"; exit 0
fi
touch "$1/ran"; exit 1|}
  in
  List.iter
    (fun (prefix, expect) ->
      let events, shard, note =
        supervise ~script
          ~check:(fun dir ->
            if Sys.file_exists (Filename.concat dir "note") then whole
            else prefix)
          ()
      in
      Alcotest.(check (list string)) "one requeue, for the crash"
        [ "exited 1" ] (requeue_reasons events);
      Alcotest.(check bool) "shard done" true
        (shard = Core.Queue.Done { degraded = false });
      Alcotest.(check (option string)) "the respawn's view" (Some expect)
        note)
    [ (Core.Procs.Prefix, "1 --resume shard.jsonl"); (Core.Procs.Unusable, "1") ]

(* Every attempt crashes: quarantined after max_attempts. *)
let test_crash_quarantines () =
  let events, shard, _ =
    supervise ~max_attempts:2 ~script:"exit 1"
      ~check:(fun _ -> Core.Procs.Unusable) ()
  in
  Alcotest.(check (list string)) "one retry before the budget runs out"
    [ "exited 1" ] (requeue_reasons events);
  Alcotest.(check bool) "quarantined with the last exit" true
    (shard = Core.Queue.Quarantined { reason = "exited 1" })

(* Exit 0 is trusted only with a whole ledger. *)
let test_exit0_verified () =
  let events, shard, _ =
    supervise ~max_attempts:2 ~script:"exit 0"
      ~check:(fun _ -> Core.Procs.Prefix) ()
  in
  Alcotest.(check (list string)) "requeued, not done"
    [ "exited 0 but ledger incomplete" ] (requeue_reasons events);
  Alcotest.(check bool) "never marked done" true
    (List.for_all
       (function Core.Queue.Shard_done _ -> false | _ -> true)
       events);
  Alcotest.(check bool) "quarantined" true
    (match shard with Core.Queue.Quarantined _ -> true | _ -> false)

let test_exit3_degraded () =
  let events, shard, _ =
    supervise ~script:"exit 3" ~check:(fun _ -> Core.Procs.Unusable) ()
  in
  Alcotest.(check (list string)) "no requeue" [] (requeue_reasons events);
  Alcotest.(check bool) "done and degraded" true
    (shard = Core.Queue.Done { degraded = true })

(* A worker that overruns its lease is killed (and reaped) and its shard
   requeued; the respawn then finishes. *)
let test_lease_deadline () =
  let script =
    {|if [ -n "$GPUWMM_RESPAWN" ]; then touch "$1/note"; exit 0; fi
exec sleep 30|}
  in
  let events, shard, _ =
    supervise ~lease_s:1.0 ~script
      ~check:(fun dir ->
        if Sys.file_exists (Filename.concat dir "note") then whole
        else Core.Procs.Unusable)
      ()
  in
  (match requeue_reasons events with
  | [ reason ] ->
    Alcotest.(check bool) ("requeued for the deadline: " ^ reason) true
      (String.starts_with ~prefix:"lease expired" reason)
  | rs -> Alcotest.failf "expected one requeue, got %d" (List.length rs));
  let first_pid =
    List.find_map
      (fun (ev : Core.Queue.event) ->
        match ev with Leased { pid; _ } -> Some pid | _ -> None)
      events
  in
  (match first_pid with
  | Some pid -> (
    match Unix.kill pid 0 with
    | () -> Alcotest.failf "overrunning worker %d still exists" pid
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
  | None -> Alcotest.fail "no lease");
  Alcotest.(check bool) "respawn finished the shard" true
    (shard = Core.Queue.Done { degraded = false })

(* Stopping the tick/wait loop mid-lease: an Exec.Interrupted (what the
   CLI's SIGTERM/SIGINT handlers raise) unwinds it into Procs.stop, the
   call the daemon makes on SIGTERM.  The exception propagates, no
   worker is left running or unreaped, and no descriptor stays open. *)
let test_interrupt_stops_workers () =
  let fds = fd_count () in
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> raise (Core.Exec.Interrupted 14)))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigalrm previous)
    (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0; it_value = 0.3 });
      match
        supervise ~script:"exec sleep 30"
          ~check:(fun _ -> Core.Procs.Unusable)
          ()
      with
      | _ -> Alcotest.fail "the lease loop outlived the interrupt"
      | exception Core.Exec.Interrupted 14 -> ());
  Alcotest.(check int) "no descriptor leaked" fds (fd_count ());
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "a child (%d) was left behind" pid

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

(* Procs.wait is woken by a worker's exit (its stdin pipe reads EOF) and
   by Procs.wake from another domain, well inside the 0.1 s cadence it
   otherwise sleeps out. *)
let test_wait_wakes () =
  let on_exit =
    List.init 5 (fun _ ->
        let waits = ref [] in
        let _, shard, _ =
          supervise ~script:"exit 0"
            ~check:(fun _ -> whole)
            ~wait:(fun sup ->
              waits := timed (fun () -> Core.Procs.wait sup) :: !waits)
            ()
        in
        Alcotest.(check bool) "shard done" true
          (shard = Core.Queue.Done { degraded = false });
        (* The first wait follows the spawn. *)
        List.nth !waits (List.length !waits - 1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "a worker's exit wakes the wait (median %.1f ms)"
       (1000.0 *. median on_exit))
    true
    (median on_exit < 0.05);
  let fds = fd_count () in
  let sup =
    Core.Procs.create ~exe:"/bin/sh" ~max_workers:1 ~lease_s:infinity
      ~backoff_base_s:0.0
      ~state:(fun () -> Core.Queue.empty)
      ~emit:ignore
      (fun _ _ -> Alcotest.fail "nothing to lease")
  in
  Fun.protect
    ~finally:(fun () -> Core.Procs.stop sup)
    (fun () ->
      let idle = timed (fun () -> Core.Procs.wait sup) in
      Alcotest.(check bool)
        (Printf.sprintf "an idle wait sits out the cadence (%.1f ms)"
           (1000.0 *. idle))
        true
        (idle >= 0.08);
      let on_wake =
        List.init 5 (fun _ ->
            let d =
              Domain.spawn (fun () ->
                  Unix.sleepf 0.01;
                  Core.Procs.wake sup)
            in
            let dt = timed (fun () -> Core.Procs.wait sup) in
            Domain.join d;
            dt)
      in
      Alcotest.(check bool)
        (Printf.sprintf "a wake from another domain ends the wait (median \
                         %.1f ms)"
           (1000.0 *. median on_wake))
        true
        (median on_wake < 0.05));
  Core.Procs.wake sup;
  Alcotest.(check int) "no descriptor leaked, late wake ignored" fds
    (fd_count ())

(* A submission naming more shards than `--shard k/N` accepts would be
   queued only to fail every lease. *)
let test_submission_workers_bounded () =
  let parse workers =
    Core.Serve.parse_submission ~default_max_attempts:3
      (Printf.sprintf {|{"chip":"K20","runs":1,"workers":%d}|} workers)
  in
  Alcotest.(check bool) "512 shards accepted" true
    (match parse Core.Shard.max_shards with
    | Ok spec -> spec.Core.Queue.workers = 512
    | Error _ -> false);
  List.iter
    (fun workers ->
      match parse workers with
      | Ok _ -> Alcotest.failf "%d shards accepted" workers
      | Error e ->
        Alcotest.(check bool) ("the error names the range: " ^ e) true
          (contains ~sub:"1..512" e))
    [ 513; 0 ]

(* A one-cell campaign leases one shard whatever its workers; a
   campaign over every application keeps the shards it asked for, up to
   one per cell. *)
let test_shard_count () =
  let spec body =
    match Core.Serve.parse_submission ~default_max_attempts:3 body with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let cells = List.length Apps.Registry.all in
  Alcotest.(check int) "one app, 2 workers" 1
    (Core.Serve.shard_count (spec {|{"chip":"K20","app":"cbe-ht"}|}));
  Alcotest.(check int) "all apps, 2 workers" 2
    (Core.Serve.shard_count (spec {|{"chip":"K20"}|}));
  Alcotest.(check int) "all apps, 512 workers" cells
    (Core.Serve.shard_count (spec {|{"chip":"K20","workers":512}|}))

(* ------------------------------------------------------------------ *)
(* The daemon's documents, pinned byte for byte: the client decodes
   what the daemon writes, and scripts read the same bytes             *)

let doc_spec ?app ?(priority = 0) ~id ~workers () =
  { Core.Queue.id; kind = "test"; chip = "K20"; app; runs = 8;
    env = "sys-str+"; seed = 7; workers; priority; max_attempts = 3 }

(* One queued job, a running one with a leased shard and a shard in
   backoff, a done job with a ledger, a failed one with a quarantined
   shard, and a degraded one. *)
let doc_state =
  let open Core.Queue in
  replay
    [ Submitted { t = 1.0; spec = doc_spec ~id:"job-1" ~app:"cbe-dot" ~workers:1 () };
      Submitted { t = 2.0; spec = doc_spec ~id:"job-2" ~priority:5 ~workers:2 () };
      Leased
        { t = 3.0; id = "job-2"; shard = 1; pid = 4242; attempt = 1;
          deadline = 33.0 };
      Leased
        { t = 3.0; id = "job-2"; shard = 2; pid = 4243; attempt = 1;
          deadline = 33.0 };
      Requeued
        { t = 4.0; id = "job-2"; shard = 2; attempt = 1; reason = "exited 1";
          not_before = 4.75 };
      Submitted { t = 5.0; spec = doc_spec ~id:"job-3" ~app:"cbe-ht" ~workers:2 () };
      Shard_done { t = 6.0; id = "job-3"; shard = 1; degraded = false };
      Shard_done { t = 6.5; id = "job-3"; shard = 2; degraded = false };
      Finished
        { t = 7.0; id = "job-3"; status = "done";
          ledger = Some "state/job-3.jsonl" };
      Submitted { t = 8.0; spec = doc_spec ~id:"job-4" ~workers:1 () };
      Quarantined
        { t = 9.0; id = "job-4"; shard = 1; reason = "killed by signal 9" };
      Finished { t = 9.5; id = "job-4"; status = "failed"; ledger = None };
      Submitted { t = 10.0; spec = doc_spec ~id:"job-5" ~app:"ls-bh" ~workers:1 () };
      Shard_done { t = 10.5; id = "job-5"; shard = 1; degraded = true };
      Finished
        { t = 11.0; id = "job-5"; status = "degraded";
          ledger = Some "state/job-5.jsonl" } ]

let test_documents_bytes () =
  let jobs = Core.Serve.listing doc_state in
  let body = Core.Json.to_string (Core.Codec.encode Core.Serve.jobs jobs) in
  Alcotest.(check string) "/jobs"
    {|{"jobs":[{"id":"job-1","kind":"test","chip":"K20","app":"cbe-dot","runs":8,"env":"sys-str+","seed":7,"workers":1,"priority":0,"max_attempts":3,"status":"queued","shards_done":0,"shards":[{"state":"pending","attempt":0}]},{"id":"job-2","kind":"test","chip":"K20","runs":8,"env":"sys-str+","seed":7,"workers":2,"priority":5,"max_attempts":3,"status":"running","shards_done":0,"shards":[{"state":"leased","pid":4242,"attempt":1,"since":3.0,"deadline":33.0},{"state":"pending","attempt":1,"not_before":4.75}]},{"id":"job-3","kind":"test","chip":"K20","app":"cbe-ht","runs":8,"env":"sys-str+","seed":7,"workers":2,"priority":0,"max_attempts":3,"status":"done","shards_done":2,"ledger":"state/job-3.jsonl","shards":[{"state":"done"},{"state":"done"}]},{"id":"job-4","kind":"test","chip":"K20","runs":8,"env":"sys-str+","seed":7,"workers":1,"priority":0,"max_attempts":3,"status":"failed","shards_done":0,"shards":[{"state":"quarantined","reason":"killed by signal 9"}]},{"id":"job-5","kind":"test","chip":"K20","app":"ls-bh","runs":8,"env":"sys-str+","seed":7,"workers":1,"priority":0,"max_attempts":3,"status":"degraded","shards_done":1,"ledger":"state/job-5.jsonl","shards":[{"state":"done","degraded":true}]}]}|}
    body;
  Alcotest.(check bool) "/jobs decodes to what the daemon listed" true
    (Result.bind (Core.Json.of_string body) (Core.Codec.decode Core.Serve.jobs)
    = Ok jobs);
  let resp =
    Core.Json.to_string (Core.Codec.encode Core.Serve.accepted ("job-6", 2))
  in
  Alcotest.(check string) "/submit response"
    {|{"id":"job-6","workers":2,"status":"queued"}|} resp;
  Alcotest.(check bool) "/submit response decodes" true
    (Result.bind (Core.Json.of_string resp)
       (Core.Codec.decode Core.Serve.accepted)
    = Ok ("job-6", 2))

let test_queue_exposition_bytes () =
  Alcotest.(check string) "queue gauges"
    {|# TYPE gpuwmm_queue_depth gauge
gpuwmm_queue_depth 2
# TYPE gpuwmm_queue_leased gauge
gpuwmm_queue_leased 1
# TYPE gpuwmm_queue_shards_done gauge
gpuwmm_queue_shards_done 3
# TYPE gpuwmm_queue_shards_quarantined gauge
gpuwmm_queue_shards_quarantined 1
# TYPE gpuwmm_queue_active_jobs gauge
gpuwmm_queue_active_jobs 2
# TYPE gpuwmm_queue_finished_jobs gauge
gpuwmm_queue_finished_jobs 3
# TYPE gpuwmm_queue_retries_total counter
gpuwmm_queue_retries_total 1
# TYPE gpuwmm_queue_quarantined_total counter
gpuwmm_queue_quarantined_total 1
# TYPE gpuwmm_queue_oldest_lease_age_seconds gauge
gpuwmm_queue_oldest_lease_age_seconds 7.25
|}
    (Core.Serve.queue_prometheus ~now:10.25 doc_state)

(* The client encodes the body the daemon decodes: the same spec, an
   absent attempt budget resolved to the daemon's, an explicit one kept
   (and a zero refused).  perfbench writes its own body. *)
let test_submission_body () =
  let parse ?(default_max_attempts = 3) body =
    Core.Serve.parse_submission ~default_max_attempts body
  in
  let spec = { (doc_spec ~id:"" ~app:"cbe-dot" ~workers:2 ()) with priority = 1 } in
  let body m =
    Core.Json.to_string (Core.Codec.encode Core.Serve.submission (spec, m))
  in
  Alcotest.(check bool) "absent max_attempts is the daemon's" true
    (parse ~default_max_attempts:5 (body None) = Ok { spec with max_attempts = 5 });
  Alcotest.(check bool) "explicit max_attempts kept" true
    (parse (body (Some 1)) = Ok { spec with max_attempts = 1 });
  Alcotest.(check bool) "max_attempts 0 refused" true
    (parse (body (Some 0)) = Error "max_attempts must be >= 1");
  Alcotest.(check bool) "perfbench's body" true
    (parse {|{"chip":"K20","env":"sys-str+","runs":3,"seed":11,"workers":2}|}
    = Ok
        { Core.Queue.id = ""; kind = "test"; chip = "K20"; app = None;
          runs = 3; env = "sys-str+"; seed = 11; workers = 2; priority = 0;
          max_attempts = 3 })

let () =
  Alcotest.run "serve-queue"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest prop_event_round_trip;
          Alcotest.test_case "journal round-trip" `Quick
            test_journal_round_trip;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "repair then append after torn restart" `Quick
            test_journal_append_after_torn;
          Alcotest.test_case "append after newline-less valid tail" `Quick
            test_journal_append_no_trailing_newline;
          QCheck_alcotest.to_alcotest prop_cut_anywhere;
          Alcotest.test_case "corrupt middle line fails closed" `Quick
            test_journal_rejects_corrupt_middle ] );
      ( "state",
        [ Alcotest.test_case "lease ordering and backoff gates" `Quick
            test_next_lease_ordering;
          Alcotest.test_case "backoff schedule boundaries" `Quick
            test_backoff_schedule;
          Alcotest.test_case "junk events ignored" `Quick
            test_apply_ignores_junk;
          Alcotest.test_case "stats partition" `Quick test_stats_partition;
          Alcotest.test_case "submission workers bounded" `Quick
            test_submission_workers_bounded;
          Alcotest.test_case "shards per campaign" `Quick test_shard_count ] );
      ( "replay",
        [ QCheck_alcotest.to_alcotest prop_kill_anywhere_keeps_completions ]
      );
      ( "procs",
        [ Alcotest.test_case "crash then success respawns" `Quick
            test_crash_then_success;
          Alcotest.test_case "crashes quarantine" `Quick
            test_crash_quarantines;
          Alcotest.test_case "exit 0 needs a whole ledger" `Quick
            test_exit0_verified;
          Alcotest.test_case "exit 3 is done, degraded" `Quick
            test_exit3_degraded;
          Alcotest.test_case "lease deadline kills" `Quick test_lease_deadline;
          Alcotest.test_case "interrupt stops the workers" `Quick
            test_interrupt_stops_workers;
          Alcotest.test_case "wait wakes on exit and wake" `Quick
            test_wait_wakes ] );
      ( "docs",
        [ Alcotest.test_case "/jobs and /submit bytes" `Quick
            test_documents_bytes;
          Alcotest.test_case "queue exposition bytes" `Quick
            test_queue_exposition_bytes;
          Alcotest.test_case "submission body" `Quick test_submission_body ] )
    ]
