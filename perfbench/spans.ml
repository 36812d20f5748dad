(* In-memory span recorder for the traced pass.

   The benchmark wraps each call it makes into a layer of srp (frontend,
   alias, profile, core, target, machine, driver, serve) in [span].  Spans
   nest per domain; a span's self time is its duration minus the time its
   child spans cover.  Time the program measures inside a call the
   benchmark cannot wrap (the alias analyses Promote.run runs between its
   rounds) is moved to its own layer with [charge].  Nothing is written
   until [write], once the run is over. *)

type span = {
  id : int;
  parent : int;  (** 0 at top level *)
  layer : string;
  name : string;
  domain : int;
  t0 : float;
  t1 : float;
}

type charge = { c_parent : int; c_layer : string; c_name : string; secs : float }

let mu = Mutex.create ()
let spans : span list ref = ref []
let charges : charge list ref = ref []
let next_id = Atomic.make 1

(* the ids of the spans open on this domain, innermost first *)
let open_spans : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let reset () =
  Mutex.protect mu (fun () ->
      spans := [];
      charges := [])

let span ~layer name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = Domain.DLS.get open_spans in
  let parent = match stack with p :: _ -> p | [] -> 0 in
  Domain.DLS.set open_spans (id :: stack);
  let t0 = Srp_obs.Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Srp_obs.Clock.now () in
      Domain.DLS.set open_spans stack;
      let s =
        { id; parent; layer; name; domain = (Domain.self () :> int); t0; t1 }
      in
      Mutex.protect mu (fun () -> spans := s :: !spans))
    f

(* Charge [secs] of the innermost open span to [layer]. *)
let charge ~layer name secs =
  match Domain.DLS.get open_spans with
  | [] -> invalid_arg "Spans.charge outside a span"
  | c_parent :: _ ->
    Mutex.protect mu (fun () ->
        charges := { c_parent; c_layer = layer; c_name = name; secs } :: !charges)

let dur s = s.t1 -. s.t0

(* Self time per (layer, name): [(layer, name, calls, self_secs)], sorted. *)
let self_times () : (string * string * int * float) list =
  let spans = !spans and charges = !charges in
  let covered : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let cover id secs =
    Hashtbl.replace covered id
      (secs +. Option.value ~default:0.0 (Hashtbl.find_opt covered id))
  in
  List.iter (fun s -> if s.parent <> 0 then cover s.parent (dur s)) spans;
  List.iter (fun c -> cover c.c_parent c.secs) charges;
  let acc : (string * string, int * float) Hashtbl.t = Hashtbl.create 32 in
  let add key secs =
    let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc key) in
    Hashtbl.replace acc key (n + 1, t +. secs)
  in
  List.iter
    (fun s ->
      let inside = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      add (s.layer, s.name) (dur s -. inside))
    spans;
  List.iter (fun c -> add (c.c_layer, c.c_name) c.secs) charges;
  Hashtbl.fold (fun (l, n) (k, t) xs -> (l, n, k, t) :: xs) acc []
  |> List.sort compare

(* Summed duration of every span named [layer.name], children included. *)
let total ~layer name =
  List.fold_left
    (fun acc s -> if s.layer = layer && s.name = name then acc +. dur s else acc)
    0.0 !spans

(* Chrome trace-event JSON (loads in Perfetto); charged time appears as an
   event at the start of the span it was charged from. *)
let write path =
  let module J = Srp_obs.Json in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans
  in
  let us t = J.Float ((t -. origin) *. 1e6) in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let event ~name ~cat ~tid ~ts ~dur args =
    J.Obj
      [ ("name", J.String name); ("cat", J.String cat); ("ph", J.String "X");
        ("pid", J.Int 1); ("tid", J.Int tid); ("ts", ts);
        ("dur", J.Float (dur *. 1e6)); ("args", J.Obj args) ]
  in
  let events =
    List.rev_map
      (fun s ->
        event ~name:(s.layer ^ "." ^ s.name) ~cat:s.layer ~tid:s.domain
          ~ts:(us s.t0) ~dur:(dur s)
          [ ("id", J.Int s.id); ("parent", J.Int s.parent) ])
      !spans
    @ List.filter_map
        (fun c ->
          Option.map
            (fun p ->
              event ~name:(c.c_layer ^ "." ^ c.c_name) ~cat:c.c_layer
                ~tid:p.domain ~ts:(us p.t0) ~dur:c.secs
                [ ("charged_from", J.Int c.c_parent) ])
            (Hashtbl.find_opt by_id c.c_parent))
        !charges
  in
  let oc = open_out path in
  output_string oc (J.to_string (J.Arr events));
  output_char oc '\n';
  close_out oc
