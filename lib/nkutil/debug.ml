let enabled = Sys.getenv_opt "NKDEBUG" <> None

let printf fmt = Printf.eprintf fmt
