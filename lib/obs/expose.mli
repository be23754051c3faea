(** A minimal zero-dependency HTTP/1.1 scrape endpoint over Unix
    sockets. One background systhread accepts connections and serves
    three routes:

    - [GET /metrics] — Prometheus text exposition (version 0.0.4) of
      every registry the server was started with, concatenated;
    - [GET /healthz] — ["ok\n"], for liveness probes;
    - [GET /vars] — a JSON snapshot of every instrument, grouped by
      registry, with histogram count/sum/p50/p90/p99.

    The server renders each response from live registries, so scrapes
    observe instruments concurrently with worker domains; instruments
    are themselves domain-safe, so a scrape sees a consistent value per
    sample (no torn histograms). Connections are handled one at a time
    — a scrape endpoint needs no concurrency — and every response
    carries [Content-Length] and [Connection: close]. *)

type t

val start :
  ?host:string ->
  port:int ->
  registries:(unit -> (string * Registry.t) list) ->
  unit ->
  (t, string) result
(** Bind [host] (default ["127.0.0.1"]) on [port] (0 picks an ephemeral
    port — read it back with {!port}) and spawn the accept thread — a
    systhread of the calling domain, not a fresh domain, so an idle
    endpoint adds no stop-the-world GC participant (see [expose.ml]).
    [registries] is re-evaluated on every request, so registries created
    after [start] still show up. Returns [Error msg] for a port outside
    0–65535 and when the bind fails (port in use, privileged port, bad
    host). *)

val port : t -> int
(** The actually-bound TCP port. *)

val stop : t -> unit
(** Signal the accept loop, join the thread, and close the listening
    socket. Idempotent. *)
