(* Host speed calibration.

   On a shared host the CPU time of the same deterministic work drifts by
   tens of percent from one minute to the next, as other tenants come and
   go, and taking the fastest of a few reps cannot remove a slowdown that
   lasts the whole run. A fixed kernel that uses nothing from the system
   under test (string hashing, small allocations, a sort) slows down with
   the host, so each rep is timed between two runs of it, and its CPU
   seconds are scaled to a host on which the kernel takes [reference_s]. *)

let kernel () =
  let t0 = Sys.time () in
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for i = 0 to 49_999 do
    let k = string_of_int (i land 4095) in
    (match Hashtbl.find_opt h k with
    | Some l -> Hashtbl.replace h k (i :: (if List.length l > 8 then [] else l))
    | None -> Hashtbl.add h k [ i ]);
    acc := !acc + String.length k
  done;
  let a = Array.init 25_000 (fun i -> float_of_int (i * 7919 mod 100_003)) in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (!acc, a));
  Sys.time () -. t0

(* About the kernel's time on an idle 2.1 GHz Xeon vCPU, so scaled times
   read close to raw ones on a quiet host. *)
let reference_s = 0.02

let fastest_kernel () = Float.min (kernel ()) (Float.min (kernel ()) (kernel ()))

(* [around f] runs [f] between two calibrations and returns its result with
   the factor that scales CPU seconds measured during [f] to the reference
   host. The faster calibration counts: a burst of interference that slows
   one of them says nothing about the host's speed. *)
let around f =
  let before = fastest_kernel () in
  let x = f () in
  let after = fastest_kernel () in
  (x, reference_s /. Float.min before after)
