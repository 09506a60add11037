(** The one way to go from a transition function to an analysed chain.

    Every exact pipeline in the repository does the same three things:
    obtain the state space (either a closed-form enumeration such as
    {!Partition_space.enumerate}, or the set reachable from a root
    state), build the {!Exact.t}, and compute its mixing time.  This
    module packages that build→mix sequence once, with wall-clock
    timings for each half so benches can report cost per grid cell
    (e.g. through [Engine.Metrics.add_phase]).

    Builds {e stream}: transition rows are emitted in discovery order
    straight into a {!Blocked_csr} store — for a reachable space, the
    BFS frontier property (a state's row is fully determined when it is
    dequeued) means discovery and row emission are one pass.  With
    [~spill] the store pages completed shards to disk, so builds whose
    transition structure exceeds RAM still finish.  State interning goes
    through {!State_index} with an explicit [hash]/[equal] when the
    caller has one (falling back to structural hashing). *)

type 'state source

val enumerated : 'state array -> 'state source
(** A state space given explicitly; must list each state once. *)

val reachable : root:'state -> 'state source
(** The states reachable from [root] under the transition function,
    discovered by breadth-first search. *)

val reachable_states :
  ?hash:('state -> int) ->
  ?equal:('state -> 'state -> bool) ->
  root:'state ->
  transitions:('state -> ('state * float) list) ->
  unit ->
  'state array
(** The BFS closure itself, in discovery order — [root] first.  States
    are interned through a {!State_index} keyed by [hash]/[equal]
    (default: structural). *)

val build :
  ?block_rows:int ->
  ?spill:string ->
  ?hash:('state -> int) ->
  ?equal:('state -> 'state -> bool) ->
  'state source ->
  transitions:('state -> ('state * float) list) ->
  'state Exact.t
(** Resolve the source and build the chain, streaming rows into a
    {!Blocked_csr} store ([block_rows] rows per shard, default 4096;
    [spill] pages completed shards to a disk block file).  Duplicate
    successors in a row are merged, in {!Blocked_csr.add_row}'s order.

    Within a row, a successor physically equal ([==]) to the one before
    it reuses that one's id without being hashed again, so a
    transitions function that emits one shared array for a run of
    equal successors (as [Core.Dynamic_process.exact_transitions]
    does for a value class) pays one lookup per run.  The row is read
    only after [transitions] returns it, and the memo is dropped
    between rows, so arrays may be rewritten and reused from one call
    to the next; an array that sits in the state space (a [reachable]
    source interns the successors themselves) must not be mutated.
    @raise Invalid_argument ["Exact.build: empty state space"] or
    ["Exact.build: duplicate state"] for a bad enumeration, and as
    {!Exact.validate_row} for a bad row. *)

type 'state analysis = {
  chain : 'state Exact.t;
  state_count : int;  (** [Exact.size chain]. *)
  nnz : int;  (** Non-zeros in the transition matrix. *)
  tau : int;  (** [Exact.mixing_time] of the chain. *)
  build_seconds : float;  (** Wall-clock for enumeration + build. *)
  mix_seconds : float;  (** Wall-clock for the mixing-time search. *)
}

val build_mix :
  ?eps:float ->
  ?max_t:int ->
  ?domains:int ->
  ?block_rows:int ->
  ?spill:string ->
  ?hash:('state -> int) ->
  ?equal:('state -> 'state -> bool) ->
  ?starts:'state array ->
  ?checkpoint:Exact_checkpoint.sink ->
  'state source ->
  transitions:('state -> ('state * float) list) ->
  'state analysis
(** Build the chain and compute its exact mixing time (defaults as
    {!Exact.mixing_time}).  [starts] restricts the mixing search to the
    given states (members of the space); [checkpoint] makes the mixing
    phase resumable through the sink, as {!Exact.mixing_time}.
    @raise Invalid_argument as {!build}, or if a designated start is
    outside the space.
    @raise Failure as {!Exact.mixing_time}. *)
