type 'state t = {
  step : Prng.Rng.t -> 'state -> 'state -> 'state * 'state;
  equal : 'state -> 'state -> bool;
  distance : 'state -> 'state -> int;
}

let make ~step ~equal ~distance = { step; equal; distance }

(* Each joint step derives one fresh substream and replays it into both
   copies.  Splitting (rather than copying the main generator) keeps the
   two marginal chains exact even when the copies consume different
   numbers of random draws (e.g. ADAP probing further in one copy). *)
let of_identity ~chain_step ~equal ~distance =
  let step g x y =
    let shared = Prng.Rng.split g in
    let replay = Prng.Rng.copy shared in
    let x' = chain_step shared x in
    let y' = chain_step replay y in
    (x', y')
  in
  { step; equal; distance }

(* Watermarking is off by default: the probe recomputes the coupling
   metric (typically O(n)), which the engine would otherwise evaluate
   after every step even when nobody reads it. *)
let sim ?metrics ?(copy = fun s -> s) c ~x ~y =
  let x = ref x and y = ref y in
  Engine.Sim.make ?metrics ~watermark:false
    ~step:(fun g ->
      let x', y' = c.step g !x !y in
      x := x';
      y := y';
      0)
    ~observe:(fun () -> (copy !x, copy !y))
    ~reset:(fun (a, b) ->
      x := copy a;
      y := copy b)
    ~probe:(fun () ->
      if c.equal !x !y then 0 else Stdlib.max 1 (c.distance !x !y))
    ()
