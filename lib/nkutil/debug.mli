(** Opt-in datapath debug printing ([NKDEBUG] set in the environment).

    Guard every call: [if Debug.enabled then Debug.printf "..." args]. The
    guard is what makes a disabled trace free — the format arguments are
    neither evaluated nor captured, where a [Printf.ifprintf] fallback
    still builds a closure per argument on every call. *)

val enabled : bool
(** Read once at start-up. *)

val printf : ('a, out_channel, unit) format -> 'a
(** [Printf.eprintf]. *)
