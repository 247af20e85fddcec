(** JSON rendering helpers shared by every exporter. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the surrounding
    quotes: ["\""], ["\\"] and newline get short escapes, every other
    control byte below 0x20 a [\u00XX] escape; all other bytes pass
    through unchanged. *)
