type err =
  | Econnrefused
  | Econnreset
  | Etimedout
  | Eaddrinuse
  | Einval
  | Enotconn
  | Eclosed
  | Eagain
  | Enobufs

let err_to_string = function
  | Econnrefused -> "ECONNREFUSED"
  | Econnreset -> "ECONNRESET"
  | Etimedout -> "ETIMEDOUT"
  | Eaddrinuse -> "EADDRINUSE"
  | Einval -> "EINVAL"
  | Enotconn -> "ENOTCONN"
  | Eclosed -> "ECLOSED"
  | Eagain -> "EAGAIN"
  | Enobufs -> "ENOBUFS"

let get_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (err_to_string e))

type payload = Data of string | Zeros of int

let payload_len = function Data s -> String.length s | Zeros n -> n

type recv_mode = [ `Copy | `Discard | `Auto ]

type events = { readable : bool; writable : bool; hup : bool }

(* All eight readiness snapshots, built once: [events] hands out a shared
   immutable value instead of allocating one per readiness query. *)
let all_events =
  Array.init 8 (fun i ->
      { readable = i land 1 <> 0; writable = i land 2 <> 0; hup = i land 4 <> 0 })

let events ~readable ~writable ~hup =
  all_events.(Bool.to_int readable lor (Bool.to_int writable lsl 1) lor (Bool.to_int hup lsl 2))

let no_events = all_events.(0)
