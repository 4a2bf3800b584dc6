(** Remote procedure calls over ports — §4.1's third option.

    When a shared structure is operated on under a lock, the data and the
    computation can be co-located three ways: execute in place with
    remote references, move the data (migration), or move the computation
    — "performing a remote procedure call...  implementations of
    languages such as Emerald on top of PLATINUM would utilize the third
    option."  This is that option as a user-level library: a server
    thread bound to the data's node executes requests that arrive through
    a port, so every data reference it makes is local.

    See [examples/three_ways.ml] for the §4.1 comparison, live. *)

type server

val serve : ?proc:int -> (int array -> int array) -> server
(** Spawn a server thread (on [proc], default wherever the round-robin
    placer puts it) executing [handler] on each request.  The handler
    runs inside the simulation and may use {!Api} freely — typically it
    reads and writes data resident on its own node. *)

val call : server -> int array -> int array
(** Synchronous call: ship the arguments, block until the reply.  Under
    fault injection ({!Platinum_machine.Machine.set_inject}) a request may
    be lost in the switch; the client recovers by retransmitting after an
    exponential-backoff timeout, bounded by the plane's retry cap — a call
    always completes, it just takes longer. *)

val call_async : server -> int array -> unit -> int array
(** Fire the request immediately; the returned thunk blocks for (and
    returns) the reply when forced.  Retransmits like {!call}. *)

val shutdown : server -> unit
(** Stop the server thread (after it finishes queued requests) and join
    it. *)
