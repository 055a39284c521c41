type t = ..

exception Mismatch

let embed (type a) () =
  let module M = struct
    type t += Case of a
  end in
  let inject (x : a) = M.Case x in
  let project = function M.Case x -> x | _ -> raise Mismatch in
  (inject, project)
