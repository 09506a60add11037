(* In-memory span tracer for the traced run.

   Spans are recorded only in the benchmark's own code, around its calls
   into the library, and are aggregated by name as they close: count,
   total time, and the part of that time covered by child spans.  A
   layer's self time is its spans' total minus their child time.
   Calls too short and too many for a span each (the TV chain's steps)
   are credited to the enclosing span in one sum with [add_child].

   Spans must be opened and closed on the main domain (the benchmark
   never opens one from a worker). *)

let enabled = ref false

type agg = { mutable count : int; mutable total_ns : int; mutable child_ns : int }

let table : (string, agg) Hashtbl.t = Hashtbl.create 64

type frame = { name : string; start : int; mutable child : int }

let stack : frame list ref = ref []
let now_ns () = Int64.to_int (Obs.Clock.now_ns ())

let enter name =
  let fr = { name; start = now_ns (); child = 0 } in
  stack := fr :: !stack;
  fr

let agg name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_ns = 0; child_ns = 0 } in
      Hashtbl.add table name a;
      a

let leave fr =
  let dur = now_ns () - fr.start in
  let a = agg fr.name in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.child_ns <- a.child_ns + fr.child;
  match !stack with
  | _ :: (parent :: _ as rest) ->
      parent.child <- parent.child + dur;
      stack := rest
  | _ -> stack := []

let span name f =
  if not !enabled then f ()
  else
    let fr = enter name in
    match f () with
    | v ->
        leave fr;
        v
    | exception e ->
        leave fr;
        raise e

(* Record [count] calls to [name] that took [ns] in all as children of
   the innermost open span. *)
let add_child name ~count ~ns =
  if !enabled then begin
    let a = agg name in
    a.count <- a.count + count;
    a.total_ns <- a.total_ns + ns;
    match !stack with
    | parent :: _ -> parent.child <- parent.child + ns
    | [] -> ()
  end

(* The layer of a span is its name up to the first dot. *)
let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Per-layer (self seconds, span count), summed over the layer's span
   names. *)
let layer_totals () =
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name a ->
      let l = layer_of name in
      let self, count = Option.value (Hashtbl.find_opt acc l) ~default:(0, 0) in
      Hashtbl.replace acc l (self + a.total_ns - a.child_ns, count + a.count))
    table;
  fun layer ->
    match Hashtbl.find_opt acc layer with
    | Some (self, count) -> (float_of_int self *. 1e-9, count)
    | None -> (0., 0)
