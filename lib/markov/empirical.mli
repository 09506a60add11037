(** Empirical total-variation estimation.

    Exact TV distances need the full transition matrix; at realistic sizes
    we instead estimate the TV distance between the laws of an integer
    {e observable} (e.g. the maximum load) from repeated simulation.  By
    the data-processing inequality this lower-bounds the state-space TV
    distance, so a slow empirical decay certifies slow mixing, and the
    time at which it vanishes tracks the recovery time. *)

val tv_between_samples : int array -> int array -> float
(** TV distance between the empirical distributions of two samples of a
    non-negative integer observable.
    @raise Invalid_argument if either sample is empty or has a negative
    entry. *)

val observable_tv :
  'state Chain.t ->
  rng:Prng.Rng.t ->
  x0:(unit -> 'state) ->
  y0:(unit -> 'state) ->
  t:int ->
  reps:int ->
  observable:('state -> int) ->
  float
(** [observable_tv chain ~rng ~x0 ~y0 ~t ~reps ~observable] estimates
    [‖L(f(X_t) | X_0 = x0 ()) − L(f(Y_t) | Y_0 = y0 ())‖] from [reps]
    independent runs of each chain: the one-point case of
    {!decay_profile}.  The initial states are thunks so that chains over
    mutable state get a fresh copy per run.
    @raise Invalid_argument if [reps <= 0] or [t < 0]. *)

val decay_profile :
  'state Chain.t ->
  rng:Prng.Rng.t ->
  x0:(unit -> 'state) ->
  y0:(unit -> 'state) ->
  times:int list ->
  reps:int ->
  observable:('state -> int) ->
  (int * float) list
(** [(t, estimated TV)] for each requested time, in the order of
    [times].  For each start, each of the [reps] repetitions splits one
    generator off [rng] (all of [y0]'s repetitions first, then [x0]'s)
    and runs a single trajectory up to the largest requested time,
    reading the observable at every requested time it passes.  The state
    at time [t] is exactly the one [t] fresh steps from a copy of that
    repetition's generator reach, so each time point's marginal law is
    unchanged; the estimates at different times are correlated, since
    they share trajectories.  Duplicate times share one sample, and a
    single time gives {!observable_tv}'s value bit for bit.
    @raise Invalid_argument if [reps <= 0] or a time is negative, before
    any step is simulated. *)
