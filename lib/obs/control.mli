(** The master switch for clock-reading histograms.

    Metric counters are plain field increments and always count; what
    this flag gates is the per-event latency histograms in the online
    engine and simulators, which must read a clock per operation.
    Disabled (the default), those paths cost one atomic load and a
    branch, which is what keeps the instrumented hot loops within the
    < 5% overhead budget; the serve daemon and the bench experiments
    that need timings switch it on at startup. Spans are not gated
    here: {!Optrace} records them only inside a sampled op. The flag is
    process-global and atomic — setting it on one domain is observed by
    all; [with_enabled] save/restore is not scoped per domain, so treat
    it as a whole-process toggle. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the switch forced to the given value, restoring the
    previous value afterwards (exception-safe). *)
