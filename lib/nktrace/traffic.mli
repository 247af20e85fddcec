(** Synthetic application-gateway traffic traces.

    Stand-in for the paper's September-2018 production trace of tens of
    thousands of application gateways (§6.1, Fig 7): per-minute request
    rates with the properties the paper reports — very low average
    utilization, strong burstiness, rare large peaks. Each AG's series is a
    diurnal baseline plus lognormal noise plus Poisson-arriving spikes,
    deterministic per seed. *)

type t = {
  ag_id : int;
  rates : float array;  (** requests/second, one entry per minute *)
  peak : float;
  mean : float;
}

type params = {
  minutes : int;  (** series length *)
  base_rps : float;  (** median demand level *)
  diurnal_amplitude : float;  (** 0..1 fraction of base *)
  noise_sigma : float;  (** lognormal sigma of multiplicative noise *)
  spike_probability : float;  (** per-minute probability of a burst *)
  spike_magnitude : float;  (** burst height as multiple of base *)
}

val default_params : params
(** One-hour series (60 minutes) matching Fig 7's burstiness: mean
    utilization a few percent of peak. *)

val generate_fleet : seed:int -> ?params:params -> n:int -> unit -> t list
(** [n] AGs with independent sub-streams of one seed. *)

val rate_at : t -> float -> float
(** [rate_at t seconds] is the request rate at a point in (trace) time,
    with linear interpolation between minute bins. *)

val peak_to_mean : t -> float

val top_k_by_utilization : t list -> int -> t list
(** The paper picks "the three most utilized AGs"; utilization here is the
    mean rate. *)

val aggregate : t list -> float array
(** Sum of the per-minute rates across AGs. *)
