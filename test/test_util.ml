(* Shared test helpers. *)

(* QCheck/alcotest bridge with a FIXED generator seed: the suite must be
   deterministic, so that a failing property is reproducible run-to-run
   (qcheck-alcotest self-initialises its RNG by default). *)
let qcheck ?(seed = 0xC0FFEE) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

(* The minor words [f ()] allocates. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before
