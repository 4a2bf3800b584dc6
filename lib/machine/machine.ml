type t = {
  config : Config.t;
  modules : Memmodule.t array;
  caches : Cache.t array;  (* empty when the §7 extension is off *)
  penalties : int array;
  busy : int array;
  mutable ipis : int;
  mutable inject : Platinum_sim.Inject.t option;
}

let create (config : Config.t) =
  {
    config;
    modules = Array.init config.nprocs (fun _ -> Memmodule.create ());
    caches =
      (if config.Config.local_cache_words > 0 then
         Array.init config.nprocs (fun _ ->
             Cache.create ~words:config.Config.local_cache_words
               ~line_words:config.Config.local_cache_line_words)
       else [||]);
    penalties = Array.make config.nprocs 0;
    busy = Array.make config.nprocs 0;
    ipis = 0;
    inject = None;
  }

let set_inject t inj = t.inject <- inj
let inject t = t.inject

let config t = t.config
let nprocs t = t.config.nprocs
let modules t = t.modules
let caches_enabled t = Array.length t.caches > 0
let cache t ~proc = if Array.length t.caches = 0 then None else Some t.caches.(proc)
let cache_exn t ~proc = t.caches.(proc)

let invalidate_cached_range t ~proc ~addr ~words =
  if Array.length t.caches > 0 then Cache.invalidate_range t.caches.(proc) ~addr ~words

(* A plain loop: the closure [Array.iter] needs would capture [addr] and
   [words] and be allocated on every write — this sits on the word-write
   hot path. *)
let invalidate_cached_range_all t ~addr ~words =
  for i = 0 to Array.length t.caches - 1 do
    Cache.invalidate_range (Array.unsafe_get t.caches i) ~addr ~words
  done

let add_penalty t ~proc ns = t.penalties.(proc) <- t.penalties.(proc) + ns

let take_penalty t ~proc =
  let p = t.penalties.(proc) in
  t.penalties.(proc) <- 0;
  p

let pending_penalty t ~proc = t.penalties.(proc)

let proc_busy_until t ~proc = t.busy.(proc)

let set_proc_busy_until t ~proc until =
  if until > t.busy.(proc) then t.busy.(proc) <- until

let count_ipi t = t.ipis <- t.ipis + 1
let ipis_sent t = t.ipis
