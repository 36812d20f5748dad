(* The srp benchmark: three workloads through the public driver API.

     srpbench --workload paper-sweep|fuzz-matrix|serve-batch --seed N
              --seconds S --trace 0|1 [--size full|tiny] [--perturb-ref]

   Every run sets its workload up several times (setup_s is the median),
   then measures whole passes over the workload until S seconds have
   passed, checking every output against its reference.  With --trace 1
   it alternates an untraced pass with a traced one (Traced, Spans),
   checks that the two agree bit for bit, prints a "where the time goes"
   table and reports the per-layer metrics.  The last line of stdout is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   --perturb-ref shifts one reference value, so the run must report a
   failure (the smoke test uses it); --size tiny shrinks every workload. *)

open Srp_driver
module Clock = Srp_obs.Clock
module Json = Srp_obs.Json
module Counters = Srp_machine.Counters
module Rng = Srp_support.Rng

let usage () =
  prerr_endline
    "usage: srpbench --workload paper-sweep|fuzz-matrix|serve-batch --seed N \
     --seconds S --trace 0|1 [--size full|tiny] [--perturb-ref]";
  exit 2

let arg name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let int_arg name =
  match Option.bind (arg name) int_of_string_opt with
  | Some n -> n
  | None -> usage ()

let workload_name = match arg "--workload" with Some w -> w | None -> usage ()
let seed = int_arg "--seed"
let seconds = float_of_int (int_arg "--seconds")
let traced = int_arg "--trace" = 1
let tiny = arg "--size" = Some "tiny"
let perturb = Array.mem "--perturb-ref" Sys.argv

(* Where the trace and serve's request/response files go, relative to the
   directory the benchmark runs in. *)
let out_dir = ".perfbench_out"

let failures_shown = ref 0

let fail fmt =
  Fmt.kstr
    (fun msg ->
      if !failures_shown < 20 then prerr_endline ("FAIL " ^ msg);
      incr failures_shown)
    fmt

(* --- what one pass measured --- *)

type pass = {
  wall : float;
  latencies : (float * int) list;
      (** per item (a build, or a serve batch): host seconds, and the
          host-probe units taken before it started ({!Calib.mark}) *)
  attempted : int;
  failed : int;
  instrs : int;  (** simulated instructions retired *)
  cycles : int;  (** simulated cycles, every build *)
  cycles_alat : int;
  speedups : float list;  (** baseline/alat cycles, per pair *)
  bundles : int;  (** static bundles emitted *)
  nops : int;  (** static nop syllables emitted *)
  exprs_promoted : int;
  loads_eliminated : int;
  cache : Stage.cache_stats;
  prints : string list;  (** one fingerprint per item, in item order *)
  dedup : int * int;  (** serve: (deduped, jobs) *)
  errors : int;  (** serve: error responses *)
}

let empty_cache = { Stage.hits = 0; misses = 0; evictions = 0 }

let static_code (p : Srp_target.Insn.program) =
  List.fold_left
    (fun (b, n) name ->
      let f = Hashtbl.find p.Srp_target.Insn.funcs name in
      let nb =
        match f.Srp_target.Insn.bundles with
        | Some bs -> Array.length bs
        | None -> 0
      in
      let nn =
        Array.fold_left
          (fun k i -> if i = Srp_target.Insn.Nop then k + 1 else k)
          0 f.Srp_target.Insn.code
      in
      (b + nb, n + nn))
    (0, 0) p.Srp_target.Insn.func_order

let promote_counts (r : Pipeline.run_result) =
  match r.Pipeline.compiled.Pipeline.promote with
  | None -> (0, 0)
  | Some p ->
    let s = p.Srp_core.Promote.stats in
    ( s.Srp_core.Ssapre.exprs_promoted,
      s.Srp_core.Ssapre.loads_eliminated_direct
      + s.Srp_core.Ssapre.loads_eliminated_indirect )

(* Everything a build produced that must repeat bit for bit: exit code,
   output, every machine counter, the emitted code and the promotion
   statistics. *)
let fingerprint (r : Pipeline.run_result) =
  let t = r.Pipeline.compiled.Pipeline.target in
  let code =
    List.map
      (fun n ->
        let f = Hashtbl.find t.Srp_target.Insn.funcs n in
        (f.Srp_target.Insn.code, f.Srp_target.Insn.bundles))
      t.Srp_target.Insn.func_order
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.Pipeline.exit_code, r.Pipeline.output,
            Counters.to_fields r.Pipeline.counters, code, promote_counts r )
          [ Marshal.No_sharing ]))

(* What the benchmark keeps of a build once it is checked, so a pass does
   not hold every program it compiled. *)
type build = {
  print : string;
  b_instrs : int;
  b_cycles : int;
  b_bundles : int;
  b_nops : int;
  b_exprs : int;
  b_loads : int;
}

let summarize (r : Pipeline.run_result) =
  let bundles, nops = static_code r.Pipeline.compiled.Pipeline.target in
  let exprs, loads = promote_counts r in
  let c = r.Pipeline.counters in
  { print = fingerprint r; b_instrs = c.Counters.instrs_retired;
    b_cycles = c.Counters.cycles; b_bundles = bundles; b_nops = nops;
    b_exprs = exprs; b_loads = loads }

let failed_build =
  { print = "error"; b_instrs = 0; b_cycles = 0; b_bundles = 0; b_nops = 0;
    b_exprs = 0; b_loads = 0 }

let sum f bs = List.fold_left (fun acc b -> acc + f b) 0 bs

(* A pass over checked builds, listed in item order. *)
let of_builds ~wall ~latencies ~failed ~cycles_alat ~speedups ~cache
    (bs : build list) =
  { wall; latencies; attempted = List.length bs; failed;
    instrs = sum (fun b -> b.b_instrs) bs; cycles = sum (fun b -> b.b_cycles) bs;
    cycles_alat; speedups; bundles = sum (fun b -> b.b_bundles) bs;
    nops = sum (fun b -> b.b_nops) bs; exprs_promoted = sum (fun b -> b.b_exprs) bs;
    loads_eliminated = sum (fun b -> b.b_loads) bs; cache;
    prints = List.map (fun b -> b.print) bs; dedup = (0, 0); errors = 0 }

(* Several passes (serve's batches) as one. *)
let combine (ps : pass list) =
  let sumf f = List.fold_left (fun acc p -> acc +. f p) 0.0 ps in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 ps in
  { wall = sumf (fun p -> p.wall);
    latencies = List.concat_map (fun p -> p.latencies) ps;
    attempted = sum (fun p -> p.attempted); failed = sum (fun p -> p.failed);
    instrs = sum (fun p -> p.instrs); cycles = sum (fun p -> p.cycles);
    cycles_alat = sum (fun p -> p.cycles_alat);
    speedups = List.concat_map (fun p -> p.speedups) ps;
    bundles = sum (fun p -> p.bundles); nops = sum (fun p -> p.nops);
    exprs_promoted = sum (fun p -> p.exprs_promoted);
    loads_eliminated = sum (fun p -> p.loads_eliminated);
    cache =
      { Stage.hits = sum (fun p -> p.cache.Stage.hits);
        misses = sum (fun p -> p.cache.Stage.misses);
        evictions = sum (fun p -> p.cache.Stage.evictions) };
    prints = List.concat_map (fun p -> p.prints) ps;
    dedup = (sum (fun p -> fst p.dedup), sum (fun p -> snd p.dedup));
    errors = sum (fun p -> p.errors) }

let timed f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t0)

let jobs () =
  match Option.bind (Sys.getenv_opt "SRP_BENCH_JOBS") int_of_string_opt with
  | Some j when j > 0 -> j
  | _ -> Domain.recommended_domain_count ()

(* --- paper-sweep: the paper's protocol over the ten kernels --- *)

module Paper = struct
  type state = {
    kernels : Workload.t array;
    refs : (string * ((string * int) list * (string * int) list)) list;
  }

  let counter_fields = function
    | Json.Obj fs ->
      List.map
        (fun (k, v) ->
          (k, match Json.to_int_opt v with Some i -> i | None -> min_int))
        fs
    | _ -> failwith "bench/baseline.json: counters are not an object"

  let setup () =
    let text = In_channel.with_open_bin "bench/baseline.json" In_channel.input_all in
    let doc =
      match Json.of_string text with
      | Ok d -> d
      | Error e -> failwith ("bench/baseline.json: " ^ e)
    in
    let benches =
      Option.value ~default:[]
        (Option.bind (Json.member "benchmarks" doc) Json.to_list_opt)
    in
    let refs =
      List.map
        (fun b ->
          let field k = Option.get (Json.member k b) in
          ( Option.get (Json.to_string_opt (field "name")),
            ( counter_fields (field "baseline_counters"),
              counter_fields (field "alat_counters") ) ))
        benches
    in
    let names = if tiny then [ "mcf"; "parser" ] else Srp_workloads.Registry.names () in
    let kernels = Array.of_list (List.map Srp_workloads.Registry.find names) in
    (* a perturbed reference: the first kernel's alat cycles are off by one *)
    let refs =
      if not perturb then refs
      else
        List.map
          (fun (name, (b, a)) ->
            if name <> kernels.(0).Workload.name then (name, (b, a))
            else
              ( name,
                (b, List.map (fun (k, v) -> (k, if k = "cycles" then v + 1 else v)) a) ))
          refs
    in
    { kernels; refs }

  (* Experiments.run_all's decomposition — two builds per kernel,
     baseline then alat, over one store — run on one domain with a clock
     around each build.  One domain, because two domains sharing the two
     cores of a small host make the sweep's time swing with whichever
     build the other domain happens to run. *)
  let pass ~(build : Stage.store -> Workload.t -> Pipeline.level -> Pipeline.run_result)
      (st : state) =
    let n = Array.length st.kernels in
    let store = Stage.create ~capacity:1024 () in
    let lat = Array.make (2 * n) (0.0, 0) and probing = ref 0.0 in
    let slots, wall =
      timed (fun () ->
          Array.init (2 * n) (fun i ->
              for _ = 1 to 10 do
                probing := !probing +. Calib.probe ()
              done;
              let w = st.kernels.(i / 2) in
              let level = if i mod 2 = 0 then Pipeline.Baseline else Pipeline.Alat in
              let l0 = Clock.now () in
              let r = try Ok (build store w level) with e -> Error e in
              lat.(i) <- (Clock.now () -. l0, Calib.mark ());
              r))
    in
    let wall = wall -. !probing in
    let failed = ref 0 and builds = ref [] and speedups = ref [] in
    let cycles_alat = ref 0 in
    for k = 0 to n - 1 do
      let w = st.kernels.(k) in
      let name = w.Workload.name in
      let check i want =
        match slots.(i) with
        | Error e ->
          fail "%s: %s" name (Printexc.to_string e);
          incr failed;
          builds := failed_build :: !builds;
          None
        | Ok r ->
          let got = Counters.to_fields r.Pipeline.counters in
          if got <> want then begin
            let bad = List.filter (fun kv -> not (List.mem kv want)) got in
            fail "%s: counters differ from bench/baseline.json (%s)" name
              (String.concat ", "
                 (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) bad));
            incr failed
          end;
          builds := summarize r :: !builds;
          Some r
      in
      let want_b, want_a =
        match List.assoc_opt name st.refs with
        | Some r -> r
        | None -> failwith (name ^ " is missing from bench/baseline.json")
      in
      match (check (2 * k) want_b, check ((2 * k) + 1) want_a) with
      | Some b, Some a ->
        if b.Pipeline.output <> a.Pipeline.output then begin
          fail "%s: baseline and alat outputs differ" name;
          incr failed
        end;
        cycles_alat := !cycles_alat + a.Pipeline.counters.Counters.cycles;
        speedups :=
          (float_of_int b.Pipeline.counters.Counters.cycles
          /. float_of_int a.Pipeline.counters.Counters.cycles)
          :: !speedups
      | _ -> ()
    done;
    of_builds ~wall ~latencies:(Array.to_list lat) ~failed:!failed
      ~cycles_alat:!cycles_alat ~speedups:!speedups ~cache:(Stage.stats store)
      (List.rev !builds)

  let untraced = pass ~build:(fun cache w level ->
      Pipeline.profile_compile_run ~cache w level)

  let traced = pass ~build:(fun store w level ->
      Traced.profile_compile_run ~store w level)
end

(* --- generated programs and their interpreter references --- *)

module Corpus = struct
  type program = {
    w : Workload.t;
    exit_code : int64;
    output : string;  (** Srp_profile.Interp on the ref input: the oracle *)
    steps : int;  (** interpreter steps of that run *)
  }

  let inline_workload i source =
    { Workload.name = Printf.sprintf "gen%d" i; description = "generated";
      source; train = []; ref_ = [] }

  let reference (w : Workload.t) =
    let prog = Srp_frontend.Lower.compile_source w.Workload.source in
    let i =
      Srp_profile.Interp.create ~collect_profile:false
        ~overrides:w.Workload.ref_ prog
    in
    let exit_code = Srp_profile.Interp.run i in
    { w; exit_code; output = Srp_profile.Interp.output i;
      steps = Srp_profile.Interp.steps i }

  (* The longest-running programs (about 2% of the generator's output)
     are left out: simulation is paper-sweep's job. *)
  let max_steps = 1200

  (* [n] programs drawn from the generator's shapes by a splitmix stream
     seeded with [seed] and a per-workload [salt], as a systematic sample:
     4n candidates are cut into 6 bands by source size, and each band
     gives n/6 programs evenly spaced in interpreter steps.  Every seed's
     corpus so has the same mix of sizes and run lengths; seeds change
     which programs are drawn, not how much work a pass is. *)
  let generate ~salt ~n =
    let rng = Rng.create ((seed * 7919) + salt) in
    let bands = 6 in
    let per_band = (n + bands - 1) / bands in
    let rec candidate i =
      let source = Gen_minic.program ~seed:(Rng.int rng 1_000_000_000) () in
      let p = reference (inline_workload i source) in
      if p.steps < max_steps then p else candidate i
    in
    let pool = Array.init (4 * per_band * bands) candidate in
    let size (p : program) = String.length p.w.Workload.source in
    Array.stable_sort (fun a b -> compare (size a) (size b)) pool;
    let band_len = 4 * per_band in
    Array.init (per_band * bands) (fun k ->
        let band = Array.sub pool (k / per_band * band_len) band_len in
        Array.stable_sort (fun a b -> compare a.steps b.steps) band;
        let p = band.((4 * (k mod per_band)) + 2) in
        { p with w = { p.w with Workload.name = Printf.sprintf "gen%d" k } })
    |> fun ps -> Array.sub ps 0 n

  (* a perturbed reference: the first program's output gains a byte *)
  let perturbed (ps : program array) =
    if perturb && Array.length ps > 0 then
      ps.(0) <- { (ps.(0)) with output = ps.(0).output ^ "!" };
    ps

  let check ~what (p : program) (r : Pipeline.run_result) =
    if r.Pipeline.exit_code <> p.exit_code || r.Pipeline.output <> p.output
    then begin
      fail "%s: %s output differs from the interpreter" p.w.Workload.name what;
      false
    end
    else true
end

(* --- fuzz-matrix: every generated program at every level and variant --- *)

module Fuzz = struct
  let configs =
    let d = Traced.default in
    [ ("O0", Pipeline.O0, d); ("conservative", Conservative, d);
      ("baseline", Baseline, d); ("alat", Alat, d);
      ("alat-heuristic", Alat_heuristic, d);
      ("alat--no-split", Alat, { d with Traced.split = false });
      ("alat--no-sched", Alat, { d with sched = false });
      ("alat--no-prob", Alat, { d with prob = false });
      ("alat--no-pressure", Alat, { d with pressure = false }) ]

  let setup () =
    Corpus.perturbed (Corpus.generate ~salt:1 ~n:(if tiny then 4 else 378))

  (* One domain, one store for the whole pass: the variants of a program
     build fresh back-end artifacts and hit its shared lower, profile and
     promote ones.  The time spent checking builds and probing the host's
     speed is taken out of the pass's wall time. *)
  let pass ~build (ps : Corpus.program array) =
    let store = Stage.create () in
    let lat = ref [] and failed = ref 0 and builds = ref [] in
    let cycles_alat = ref 0 and speedups = ref [] and checking = ref 0.0 in
    let (), wall =
      timed (fun () ->
          Array.iter
            (fun (p : Corpus.program) ->
              checking := !checking +. Calib.probe ();
              let cyc = Hashtbl.create 4 in
              List.iter
                (fun (what, level, (o : Traced.opts)) ->
                  let l0 = Clock.now () in
                  let r = try Ok (build store o p.Corpus.w level) with e -> Error e in
                  let l1 = Clock.now () in
                  lat := (l1 -. l0, Calib.mark ()) :: !lat;
                  (match r with
                  | Ok r ->
                    if not (Corpus.check ~what p r) then incr failed;
                    Hashtbl.replace cyc what r.Pipeline.counters.Counters.cycles;
                    builds := summarize r :: !builds
                  | Error e ->
                    fail "%s %s: %s" p.Corpus.w.Workload.name what
                      (Printexc.to_string e);
                    incr failed;
                    builds := failed_build :: !builds);
                  checking := !checking +. (Clock.now () -. l1))
                configs;
              match (Hashtbl.find_opt cyc "baseline", Hashtbl.find_opt cyc "alat") with
              | Some b, Some a ->
                cycles_alat := !cycles_alat + a;
                speedups := (float_of_int b /. float_of_int a) :: !speedups
              | _ -> ())
            ps)
    in
    of_builds ~wall:(wall -. !checking) ~latencies:!lat ~failed:!failed
      ~cycles_alat:!cycles_alat ~speedups:!speedups ~cache:(Stage.stats store)
      (List.rev !builds)

  let untraced =
    pass ~build:(fun cache (o : Traced.opts) w level ->
        Pipeline.profile_compile_run ~cache ~split:o.split ~sched:o.sched
          ~prob:o.prob ~pressure:o.pressure w level)

  let traced =
    pass ~build:(fun store opts w level ->
        Traced.profile_compile_run ~store ~opts w level)
end

(* --- serve-batch: one closed-loop client of Serve.serve --- *)

module Serve_batch = struct
  (* What a response line must say. *)
  type expect = {
    ref_ : Corpus.program;
    level : string;
    deduped : bool;
    pair : int option;  (** baseline/alat pairs share a tag within a batch *)
  }

  type batch = { text : string; expect : expect array }
  type state = { batches : batch array; lookup : string -> Workload.t option }

  (* Kernel jobs run the kernel's train input as their measured input, and
     only the four shortest kernels: such a job is still 20-100x longer
     than a generated program's, and one batch in four carries a pair of
     them, so the batch latency distribution has a kernel-bound tail. *)
  let kernel_names = [ "mcf"; "parser"; "art"; "ammp" ]

  let setup () =
    let kernels =
      List.map
        (fun name ->
          let k = Srp_workloads.Registry.find name in
          Corpus.reference { k with Workload.ref_ = k.Workload.train })
        (if tiny then [ "mcf" ] else kernel_names)
      |> Array.of_list
    in
    let lookup name =
      Array.find_map
        (fun (p : Corpus.program) ->
          if p.Corpus.w.Workload.name = name then Some p.Corpus.w else None)
        kernels
    in
    let progs = Corpus.perturbed (Corpus.generate ~salt:2 ~n:(if tiny then 8 else 120)) in
    let rng = Rng.create ((seed * 7919) + 3) in
    let levels = Array.of_list Pipeline.all_levels in
    let nbatches = if tiny then 4 else 160 in
    let next_prog = ref 0 in
    let batch b =
      let lines = ref [] and expect = ref [] and id = ref 0 and sent = ref [] in
      (* a job repeats an earlier one of its batch when it asks for the
         same thing: Serve answers it from the first *)
      let seen = Hashtbl.create 16 in
      let job ?pair fields (p : Corpus.program) level =
        let what = Json.to_string (Json.Obj fields) in
        let deduped = Hashtbl.mem seen what in
        Hashtbl.replace seen what ();
        sent := (fields, p, level) :: !sent;
        incr id;
        lines :=
          Json.to_string (Json.Obj (("id", Json.Int !id) :: fields)) :: !lines;
        expect :=
          { ref_ = p; level = Pipeline.level_name level; deduped; pair }
          :: !expect
      in
      let inline ?pair (p : Corpus.program) level =
        job ?pair
          [ ("source", Json.String p.Corpus.w.Workload.source);
            ("level", Json.String (Pipeline.level_name level)) ]
          p level
      in
      (* The corpus is ordered by size; a stride coprime to its length
         gives each batch programs from across the sizes.  Taken in order,
         the median batch was the same few mid-sized programs, and its
         latency moved with the seed. *)
      let take () =
        let p = progs.(!next_prog * 49 mod Array.length progs) in
        incr next_prog;
        p
      in
      (* 3 generated programs as baseline/alat pairs, 4 at a random level *)
      for k = 1 to 3 do
        let p = take () in
        inline ~pair:k p Pipeline.Baseline;
        inline ~pair:k p Pipeline.Alat
      done;
      for _ = 1 to 4 do
        inline (take ()) (Rng.pick rng levels)
      done;
      (* every fourth batch: one kernel at baseline, alat, and alat without
         the scheduler; the three share its lower artifact, the two alat
         jobs its train profile *)
      if b mod 4 = 0 then begin
        let k = kernels.(b / 4 mod Array.length kernels) in
        List.iter
          (fun (level, extra) ->
            job
              ?pair:(if extra = [] then Some 0 else None)
              ([ ("workload", Json.String k.Corpus.w.Workload.name);
                 ("level", Json.String (Pipeline.level_name level)) ]
              @ extra)
              k level)
          [ (Pipeline.Baseline, []); (Pipeline.Alat, []);
            (Pipeline.Alat, [ ("sched", Json.Bool false) ]) ]
      end;
      (* 3 repeats of earlier lines under new ids *)
      let firsts = Array.of_list (List.rev !sent) in
      for _ = 1 to 3 do
        let fields, p, level = firsts.(Rng.int rng (Array.length firsts)) in
        job fields p level
      done;
      { text = String.concat "\n" (List.rev !lines) ^ "\n";
        expect = Array.of_list (List.rev !expect) }
    in
    { batches = Array.init nbatches batch; lookup }

  let field k js = Option.get (Json.member k js)
  let int_field k js = Option.get (Json.to_int_opt (field k js))
  let str_field k js = Option.get (Json.to_string_opt (field k js))

  let bundles_emitted pass_stats =
    List.fold_left
      (fun acc e ->
        if Json.member "pass" e = Some (Json.String "target")
           && Json.member "name" e = Some (Json.String "bundles_emitted")
        then acc + int_field "value" e
        else acc)
      0
      (Option.value ~default:[] (Json.to_list_opt pass_stats))

  let summary_cache lines =
    match List.rev lines with
    | s :: _ -> (
      match Json.member "cache" s with
      | Some c ->
        { Stage.hits = int_field "hits" c; misses = int_field "misses" c;
          evictions = int_field "evictions" c }
      | None -> empty_cache)
    | [] -> empty_cache

  (* Check one batch's response lines (jobs, then the summary) against its
     expectations; [secs] is its latency, [counts] the (nops, exprs
     promoted, loads eliminated) of its builds when the caller saw them. *)
  let check_batch (b : batch) ~secs ~mark ~counts:(nops, exprs, loads) lines =
    let n = Array.length b.expect in
    let failed = ref 0 and deduped = ref 0 and errors = ref 0 in
    let instrs = ref 0 and bundles = ref 0 and cycles = ref 0 in
    let cycles_alat = ref 0 in
    let pairs = Hashtbl.create 8 and speedups = ref [] in
    let prints =
      List.mapi
        (fun i js ->
          if i >= n then "summary"
          else
            let e = b.expect.(i) in
            let name = e.ref_.Corpus.w.Workload.name in
            match str_field "type" js with
            | "result" ->
              let counters = field "counters" js in
              let exit_code = Int64.of_int (int_field "exit_code" js) in
              let output = str_field "output" js in
              let is_dedup = Json.member "deduped" js = Some (Json.Bool true) in
              if exit_code <> e.ref_.Corpus.exit_code
                 || output <> e.ref_.Corpus.output
                 || is_dedup <> e.deduped
                 || str_field "level" js <> e.level
                 || int_field "id" js <> i + 1
              then begin
                fail "serve %s %s: response differs from the interpreter" name
                  e.level;
                incr failed
              end;
              let cyc = int_field "cycles" counters in
              if is_dedup then incr deduped
              else begin
                instrs := !instrs + int_field "instrs_retired" counters;
                cycles := !cycles + cyc;
                bundles := !bundles + bundles_emitted (field "pass_stats" js);
                if e.level = "alat" then cycles_alat := !cycles_alat + cyc
              end;
              (* a pair's baseline line comes before its alat line *)
              Option.iter
                (fun tag ->
                  match Hashtbl.find_opt pairs tag with
                  | None -> Hashtbl.replace pairs tag cyc
                  | Some base ->
                    speedups := (float_of_int base /. float_of_int cyc) :: !speedups)
                e.pair;
              Json.to_string
                (match js with
                | Json.Obj fs -> Json.Obj (List.remove_assoc "pass_stats" fs)
                | j -> j)
            | _ ->
              fail "serve %s %s: %s" name e.level (Json.to_string js);
              incr failed;
              incr errors;
              "error")
        lines
    in
    if List.length lines <> n + 1 then begin
      fail "serve: %d response lines for %d jobs" (List.length lines) n;
      incr failed
    end;
    { wall = secs; latencies = [ (secs, mark) ]; attempted = n; failed = !failed;
      instrs = !instrs; cycles = !cycles; cycles_alat = !cycles_alat;
      speedups = !speedups; bundles = !bundles; nops; exprs_promoted = exprs;
      loads_eliminated = loads; cache = summary_cache lines; prints;
      dedup = (!deduped, n); errors = !errors }

  (* Run [serve_one] on every batch in turn, each sent right after the
     previous reply, so the pass's wall time is the sum of the batch
     latencies.  [serve_one] returns the response lines and, when it sees
     the run results (the traced pass), the (nops, exprs promoted, loads
     eliminated) of their builds. *)
  let pass ~serve_one (st : state) =
    combine
      (Array.to_list
         (Array.map
            (fun b ->
              ignore (Calib.probe ());
              let mark = Calib.mark () in
              let (lines, counts), secs = timed (fun () -> serve_one st b) in
              check_batch b ~secs ~mark ~counts lines)
            st.batches))

  let parse_lines text =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match Json.of_string l with
           | Ok js -> js
           | Error e -> failwith ("serve response is not JSON: " ^ e))

  (* The batch goes through files, as it would from a client process. *)
  let untraced =
    pass ~serve_one:(fun st b ->
        let inp = Filename.concat out_dir (Printf.sprintf "serve-%d.in" seed) in
        let outp = Filename.concat out_dir (Printf.sprintf "serve-%d.out" seed) in
        Out_channel.with_open_bin inp (fun oc -> output_string oc b.text);
        In_channel.with_open_bin inp (fun ic ->
            Out_channel.with_open_bin outp (fun oc ->
                ignore (Serve.serve ~lookup:st.lookup ~now:Clock.now ic oc)));
        let lines = parse_lines (In_channel.with_open_bin outp In_channel.input_all) in
        Sys.remove inp;
        Sys.remove outp;
        (lines, (0, 0, 0)))

  (* Serve.serve taken apart: parse, dedupe, build the unique jobs on the
     pool over one store, answer in order — under a sink-less tracer of
     its own, as Serve.serve runs every batch. *)
  let traced =
    pass ~serve_one:(fun st b ->
        let tracer = Srp_obs.Span.create () in
        Srp_obs.Span.install tracer;
        Fun.protect ~finally:Srp_obs.Span.uninstall @@ fun () ->
        let parsed =
          Spans.span ~layer:"serve" "parse" (fun () ->
              List.mapi
                (fun i line ->
                  match Json.of_string line with
                  | Ok js -> Serve.parse_job ~lookup:st.lookup ~line_no:(i + 1) js
                  | Error e -> (Json.Int (i + 1), Error e))
                (List.filter (fun l -> l <> "") (String.split_on_char '\n' b.text)))
        in
        let routed, uniq =
          Spans.span ~layer:"serve" "dedup" (fun () ->
              let by_key = Hashtbl.create 16 and uniq = ref [] and n = ref 0 in
              let routed =
                List.map
                  (fun (id, parse) ->
                    match parse with
                    | Error e -> (id, Error e)
                    | Ok j -> (
                      let key = Serve.job_key j in
                      match Hashtbl.find_opt by_key key with
                      | Some slot -> (id, Ok (j, key, slot, true))
                      | None ->
                        Hashtbl.replace by_key key !n;
                        uniq := (j, key) :: !uniq;
                        incr n;
                        (id, Ok (j, key, !n - 1, false))))
                  parsed
              in
              (routed, Array.of_list (List.rev !uniq)))
        in
        let store = Stage.create ~capacity:512 () in
        let outcomes =
          Experiments.pool_map ~ntasks:(Array.length uniq) (fun i ->
              let j, _ = uniq.(i) in
              Srp_obs.Stats.with_scope (fun () ->
                  Traced.profile_compile_run ?fuel:j.Serve.j_fuel ~store
                    ~opts:
                      { Traced.split = j.Serve.j_split; sched = j.Serve.j_sched;
                        prob = j.Serve.j_prob; pressure = j.Serve.j_pressure }
                    j.Serve.j_w j.Serve.j_level))
        in
        let stats = Stage.stats store in
        let built =
          Array.to_list outcomes
          |> List.filter_map (function
               | Ok (r, _) -> Some (summarize r)
               | Error _ -> None)
        in
        let nops = sum (fun b -> b.b_nops) built
        and exprs = sum (fun b -> b.b_exprs) built
        and loads = sum (fun b -> b.b_loads) built in
        Spans.span ~layer:"serve" "respond" (fun () ->
            let docs =
              List.map
                (fun (id, routed) ->
                  match routed with
                  | Error e -> Serve.error_json id e
                  | Ok (j, key, slot, deduped) -> (
                    match outcomes.(slot) with
                    | Ok (r, scope) -> Serve.result_json j ~key ~deduped r scope
                    | Error e -> Serve.error_json id (Printexc.to_string e)))
                routed
            in
            let summary =
              Json.Obj
                [ ("type", Json.String "summary");
                  ("cache",
                   Json.Obj
                     [ ("hits", Json.Int stats.Stage.hits);
                       ("misses", Json.Int stats.Stage.misses);
                       ("evictions", Json.Int stats.Stage.evictions) ]) ]
            in
            ( parse_lines
                (String.concat "\n" (List.map Json.to_string (docs @ [ summary ]))),
              (nops, exprs, loads) )))
end


(* --- the run --- *)

type workload =
  | W : {
      setup : unit -> 's;
      untraced : 's -> pass;
      traced : 's -> pass;
      domains : int;  (** domains the pool may use *)
      window : int;
          (** host-probe units either side of an item that scale its
              latency ({!Calib.local}) *)
    }
      -> workload

(* How many probe units either side of an item scale it (Calib.local).
   fuzz-matrix probes every 40 ms: with 20 units either side of a build
   (about a second) the quartile spread of its p95 build over ten runs
   fell from 0.135 to 0.030.  paper-sweep probes 10 units between its 2-s
   builds: 40 either side (four builds, about 8 s) cut the spread of its
   tail build from 0.17 to 0.11 and from 0.10 to 0.04 in two sets of
   runs, where 10 or 20 did no better than the pass's mean.  serve-batch's
   spread the same with any window, and it uses the whole pass. *)
let whole_pass = max_int / 2

let workloads () =
  [ ("paper-sweep",
     W { setup = Paper.setup; untraced = Paper.untraced; traced = Paper.traced;
         domains = 1; window = 40 });
    ("fuzz-matrix",
     W { setup = Fuzz.setup; untraced = Fuzz.untraced; traced = Fuzz.traced;
         domains = 1; window = 20 });
    ("serve-batch",
     W { setup = Serve_batch.setup; untraced = Serve_batch.untraced;
         traced = Serve_batch.traced; domains = jobs (); window = whole_pass }) ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile of a fixed ladder with at least ten samples
   beyond it: (percentile, value).  A coarse ladder rather than the exact
   (n-10)/n point, so a run that fits a few more or fewer passes reports
   the same percentile: p90 for 100-199 samples, p95 from 200.  It stops
   at p95: fuzz-matrix's p99 falls among the builds of the dozen largest
   programs a seed draws, and over ten seeds its quartile spread was 0.15
   of its median, where its p95's was 0.03. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let p =
    List.fold_left
      (fun best p ->
        if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then p else best)
      50.0 [ 90.0; 95.0 ]
  in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  (p, if n = 0 then nan else a.(max 0 (min (n - 1) rank)))

let geomean xs =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (max 1 (List.length xs)))

let sum_by f = List.fold_left (fun acc x -> acc +. f x) 0.0

(* (name, value, unit), printed in the order they were measured *)
let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let print_metric (name, value, unit) =
  Printf.printf "%-26s %16.6f %s\n" name value unit

let self_of selfs layer name =
  List.fold_left
    (fun acc (l, n, _, s) -> if l = layer && n = name then acc +. s else acc)
    0.0 selfs

let probe_secs () =
  Spans.total ~layer:"alias" "steensgaard-probe"
  +. Spans.total ~layer:"alias" "andersen-probe"

(* The traced pass's self times, layer x call, with what they account for. *)
let print_table ~domains ~(untraced_wall : float) (t : pass) selfs =
  let busy = sum_by (fun (_, _, _, s) -> s) selfs in
  let avail = float_of_int domains *. t.wall in
  Printf.printf "\nwhere the time goes (%s, seed %d, traced pass, %d domain%s)\n"
    workload_name seed domains (if domains = 1 then "" else "s");
  Printf.printf "  %-30s %8s %12s %7s\n" "layer.call" "calls" "self s" "share";
  List.iter
    (fun (l, n, k, s) ->
      Printf.printf "  %-30s %8d %12.4f %6.2f%%\n" (l ^ "." ^ n) k s
        (100.0 *. s /. avail))
    (List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) selfs);
  let layers = List.sort_uniq compare (List.map (fun (l, _, _, _) -> l) selfs) in
  Printf.printf "  per layer:";
  List.iter
    (fun l ->
      Printf.printf " %s %.3fs" l
        (sum_by (fun (l', _, _, s) -> if l' = l then s else 0.0) selfs))
    layers;
  Printf.printf "\n  self times %.4fs of %d x pass_s %.4fs = %.4fs; remainder %.4fs \
                 (%.2f%%: pool idle and benchmark bookkeeping)\n"
    busy domains t.wall avail (avail -. busy)
    (100.0 *. (avail -. busy) /. avail);
  Printf.printf "  untraced pass_s %.4fs; traced pass_s %.4fs, of which %.4fs are \
                 the alias probes the untraced pass does not run\n"
    untraced_wall t.wall (probe_secs ())

let layer_metrics ~domains ~untraced_walls ~traced_walls (t : pass) =
  let selfs = Spans.self_times () in
  let s = self_of selfs in
  let ms x = 1000.0 *. x in
  let per x d = if d > 0.0 then x /. d else 0.0 in
  let machine_run = s "machine" "run" in
  let builds = Spans.total ~layer:"driver" "build" in
  let compile_s =
    builds -. Spans.total ~layer:"machine" "create"
    -. Spans.total ~layer:"machine" "run" -. probe_secs ()
  in
  let nbuilds =
    List.fold_left
      (fun acc (l, n, k, _) -> if l = "driver" && n = "build" then acc + k else acc)
      0 selfs
  in
  let deduped, jobs = t.dedup in
  let interp = s "profile" "interp" in
  metric "machine.run_s" "s" machine_run;
  metric "machine.minstr_per_s" "M/s" (per (float_of_int t.instrs /. 1e6) machine_run);
  metric "machine.mcycles_per_s" "M/s" (per (float_of_int t.cycles /. 1e6) machine_run);
  metric "machine.instrs_retired" "count" (float_of_int t.instrs);
  metric "machine.create_ms" "ms" (ms (s "machine" "create"));
  metric "profile.interp_s" "s" interp;
  metric "profile.msteps_per_s" "M/s"
    (per (float_of_int (Atomic.get Traced.interp_steps) /. 1e6) interp);
  metric "core.promote_ms" "ms" (ms (s "core" "promote"));
  metric "core.exprs_promoted" "count" (float_of_int t.exprs_promoted);
  metric "core.loads_eliminated" "count" (float_of_int t.loads_eliminated);
  metric "target.select_ms" "ms" (ms (s "target" "select"));
  metric "target.regalloc_ms" "ms" (ms (s "target" "regalloc"));
  metric "target.layout_ms" "ms" (ms (s "target" "layout"));
  metric "target.sched_bundle_ms" "ms" (ms (s "target" "sched-bundle"));
  metric "target.nops_emitted" "count" (float_of_int t.nops);
  let lower = s "frontend" "lower" in
  metric "frontend.lower_ms" "ms" (ms lower);
  metric "frontend.kb_per_s" "KB/s"
    (per (float_of_int (Atomic.get Traced.source_bytes) /. 1024.0) lower);
  metric "alias.steensgaard_ms" "ms" (ms (s "alias" "steensgaard-probe"));
  metric "alias.andersen_ms" "ms" (ms (s "alias" "andersen-probe"));
  metric "alias.in_promote_ms" "ms" (ms (s "alias" "in-promote"));
  metric "stage.hits" "count" (float_of_int t.cache.Stage.hits);
  metric "stage.misses" "count" (float_of_int t.cache.Stage.misses);
  metric "stage.hit_rate" "ratio" (Stage.hit_rate t.cache);
  metric "stage.evictions" "count" (float_of_int t.cache.Stage.evictions);
  metric "pool.utilization" "ratio" (per builds (float_of_int domains *. t.wall));
  metric "serve.batch_s" "s"
    (if jobs > 0 then median (List.map fst t.latencies) else 0.0);
  metric "serve.dedup_ratio" "ratio" (per (float_of_int deduped) (float_of_int jobs));
  metric "serve.errors" "count" (float_of_int t.errors);
  metric "driver.compile_s" "s" compile_s;
  metric "driver.simulate_s" "s" (s "machine" "create" +. machine_run);
  metric "driver.compiles_per_s" "1/s" (per (float_of_int nbuilds) compile_s);
  metric "obs.trace_overhead_pct" "%"
    (100.0 *. ((median traced_walls /. median untraced_walls) -. 1.0));
  selfs

let () =
  let (W w) =
    match List.assoc_opt workload_name (workloads ()) with
    | Some w -> w
    | None -> usage ()
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* Every host time is scaled to the reference speed of the host probe
     (Calib), sampled between the pieces of work it scales: on a shared
     host the machine's own speed drifts by a third within minutes, and
     the scaled times cancel that drift.  The speed drifts within a pass
     too, so each item's latency is scaled by the probes around it
     (Calib.local), and an untraced pass's wall time, which its items
     fill, as its items are.  Raw times are printed too. *)
  let probed f =
    Calib.reset ();
    let v = f () in
    (v, Calib.scale ())
  in
  (* Set up at least 3 times and until 0.3 s have passed, at most 25
     times (a sub-millisecond set-up needs many samples); setup_s is the
     median.  The first state is kept. *)
  let (st, setups), setup_k =
    probed (fun () ->
        let setup () =
          let v = timed w.setup in
          for _ = 1 to 5 do
            ignore (Calib.probe ())
          done;
          v
        in
        let st, first = setup () in
        let rec more acc =
          if List.length acc >= 25
             || (List.length acc >= 3 && List.fold_left ( +. ) 0.0 acc >= 0.3)
          then acc
          else more (snd (setup ()) :: acc)
        in
        (st, more [ first ]))
  in
  let setup_raw = median setups in
  (* Whole passes, each of which must repeat the first one's results bit
     for bit.  Another pass starts only if it should end within the time
     given, so no pass is cut short and a run of one long pass (paper-sweep)
     takes about a pass, not two. *)
  let t0 = Clock.now () in
  let rec passes acc =
    let p0 = Clock.now () in
    let u = untraced_pass () in
    let acc = acc @ [ (u, if traced then Some (traced_pass ()) else None) ] in
    let now = Clock.now () in
    if now -. t0 +. (now -. p0) > seconds then acc else passes acc
  and untraced_pass () =
    Calib.reset ();
    let p = w.untraced st in
    let at = Calib.local ~window:w.window in
    let latencies = List.map (fun (l, m) -> (l *. at m, m)) p.latencies in
    let raw = sum_by fst p.latencies in
    ({ p with latencies },
     if raw > 0.0 then sum_by fst latencies /. raw else Calib.scale ())
  and traced_pass () =
    Spans.reset ();
    Traced.reset_counts ();
    let t, k = probed (fun () -> w.traced st) in
    (t, (t.wall -. probe_secs ()) *. k)
  in
  let runs = passes [] in
  let first = fst (fst (List.hd runs)) in
  let mismatched (p : pass) =
    if p.prints = first.prints then 0
    else begin
      let n =
        try List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 p.prints first.prints
        with Invalid_argument _ -> max 1 (List.length first.prints)
      in
      fail "%d results differ between passes (traced and untraced must agree \
            bit for bit)" n;
      n
    end
  in
  let attempted = ref 0 and failed = ref 0 in
  let count (p : pass) =
    attempted := !attempted + p.attempted;
    failed := !failed + min p.attempted (p.failed + mismatched p);
    if p.cache <> first.cache then begin
      fail "artifact-store counts differ between passes";
      incr failed
    end
  in
  List.iter
    (fun ((u, _), t) ->
      count u;
      Option.iter (fun (t, _) -> count t) t)
    runs;
  let untraced = List.map fst runs in
  let latencies = List.concat_map (fun (p, _) -> List.map fst p.latencies) untraced in
  let walls = List.map (fun (p, k) -> p.wall *. k) untraced in
  let raw_walls = List.map (fun (p, _) -> p.wall) untraced in
  let fail_ratio = float_of_int !failed /. float_of_int (max 1 !attempted) in
  if not traced then begin
    let p, tail_v = tail latencies in
    metric "setup_s" "s" (setup_raw *. setup_k);
    metric "pass_s" "s" (median walls);
    metric "latency_p50_ms" "ms" (1000.0 *. median latencies);
    metric "latency_tail_ms" "ms" (1000.0 *. tail_v);
    metric "sim_minstr_per_s" "M/s"
      (float_of_int (List.fold_left (fun a (p, _) -> a + p.instrs) 0 untraced)
      /. 1e6 /. List.fold_left ( +. ) 0.0 walls);
    metric "sim_cycles_alat" "cycles" (float_of_int first.cycles_alat);
    metric "cycle_speedup_geomean" "ratio" (geomean first.speedups);
    metric "code_bundles" "bundles" (float_of_int first.bundles);
    let n = List.length latencies in
    Printf.printf
      "%s seed %d: %d passes; latency_tail is p%g over %d samples (%.0f beyond)\n"
      workload_name seed (List.length untraced) p n
      (float_of_int n *. (1.0 -. (p /. 100.0)));
    Printf.printf
      "raw host times: setup_s %.6f s, pass_s %.4f s; scaled by the host \
       probe's %.4f (set-up) and %s (passes)\n"
      setup_raw (median raw_walls) setup_k
      (String.concat ", " (List.map (fun (_, k) -> Printf.sprintf "%.4f" k) untraced))
  end
  else begin
    let t, _ = Option.get (snd (List.hd (List.rev runs))) in
    let traced_walls = List.filter_map (fun (_, t) -> Option.map snd t) runs in
    let selfs =
      layer_metrics ~domains:w.domains ~untraced_walls:walls ~traced_walls t
    in
    print_table ~domains:w.domains ~untraced_wall:(median raw_walls) t selfs;
    let path =
      Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload_name seed)
    in
    Spans.write path;
    Printf.printf "  spans of the last traced pass written to %s\n" path
  end;
  Printf.printf "%-26s %16.6f %s (%d of %d)\n" "fail_ratio" fail_ratio "ratio"
    !failed !attempted;
  let ms = List.rev !metrics in
  List.iter print_metric ms;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics",
             Json.Obj
               (List.map
                  (fun (name, value, unit) ->
                    ( name,
                      Json.Obj
                        [ ("value", Json.Float value); ("unit", Json.String unit) ]
                    ))
                  ms)) ]))
