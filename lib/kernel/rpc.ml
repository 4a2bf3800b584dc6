type server = {
  request_port : Eff.port_id;
  server_tid : Eff.thread_id;
}

(* Wire format: requests are [| kind; reply_port; args... |] with kind 0 =
   call, 1 = shutdown; replies are the handler's result verbatim. *)
let kind_call = 0
let kind_shutdown = 1

let serve ?proc handler =
  let request_port = Api.new_port () in
  let rec loop () =
    let msg = Api.recv request_port in
    if msg.(0) = kind_shutdown then ()
    else begin
      let reply_port = msg.(1) in
      let args = Array.sub msg 2 (Array.length msg - 2) in
      Api.send reply_port (handler args);
      loop ()
    end
  in
  let server_tid = Api.spawn ?proc loop in
  { request_port; server_tid }

(* Ship one request, surviving a lossy switch: under fault injection the
   message may vanish in flight, in which case the client waits out a
   retransmission timeout (exponential backoff) and re-sends.  The
   adversary never drops the final attempt, so a call always completes;
   with no plane attached this is exactly one [Api.send]. *)
let send_request port msg =
  match Api.inject_handle () with
  | None -> Api.send port msg
  | Some inj ->
    let waited = ref 0 in
    let rec go attempt =
      if Platinum_sim.Inject.rpc_drop inj ~attempt then begin
        let timeout = Platinum_sim.Inject.rpc_retrans ~attempt in
        Api.sleep timeout;
        waited := !waited + timeout;
        Platinum_sim.Inject.note_rpc_retry inj;
        go (attempt + 1)
      end
      else Api.send port msg
    in
    go 0;
    if !waited > 0 then Platinum_sim.Inject.note_recovery inj !waited

let call_async t args =
  let reply_port = Api.new_port () in
  let msg = Array.make (Array.length args + 2) 0 in
  msg.(0) <- kind_call;
  msg.(1) <- reply_port;
  Array.blit args 0 msg 2 (Array.length args);
  send_request t.request_port msg;
  fun () -> Api.recv reply_port

let call t args = call_async t args ()

let shutdown t =
  Api.send t.request_port [| kind_shutdown; 0 |];
  Api.join t.server_tid
