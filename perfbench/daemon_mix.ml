(* daemon-mix: one in-process Serve.Server on a Unix socket (1 worker,
   default deadline) with Cache.Store on over an empty cache directory,
   and two client connections each running a closed loop over a seeded
   request mix — the same one, so half the requests repeat the other
   client's, the cache serves hits beside misses and disk writes, and
   the second connection queues behind the first. Loads Serve, Api and Cache.Store on top of
   the analysis layers. *)

let clients = 2

(* --- request mix ------------------------------------------------------ *)

let files dir ext =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.sort String.compare
  |> List.map (fun f -> (f, Util.read_file (Filename.concat dir f)))

type inputs = { scenarios : (string * string) list; netlists : (string * string) list }

let load_inputs () =
  {
    scenarios = files "examples/scenarios" ".scn";
    netlists = files "examples/netlists" ".cir";
  }

let tran_netlist = "colpitts_like.cir"

(* One round of the mix: the tanh and diff-pair paper cells, each
   (n, V_i) with both quadratures, as Shil requests; HB oscprobe and
   lock range on those cells HB supports at K = 3 (n <= 3); every
   example scenario; a lint of every example file; the Colpitts-like
   netlist transient at three lengths; three pings; in a seeded order
   stratified over the request classes. The content is the same every
   round and every seed, so runs differ only in order. The tunnel
   diode stays in df-paper: its cells cost several times the others
   and would leave a round too few samples for a steady tail, and its
   HB band has no locked centre. *)
let hb_oscs = [ "tanh"; "diffpair" ]

let round_requests rng inputs =
  let shil osc reduced =
    List.filter_map
      (fun (c : Cells.t) ->
        if c.osc = osc && c.reduced = reduced then Some (Cells.payload c) else None)
      (Array.to_list Cells.all)
  in
  let hb mode =
    List.concat_map
      (fun osc ->
        List.concat_map
          (fun n ->
            List.map
              (fun vi ->
                Api.Request.Hb { osc = Builtin osc; n; vi; k_max = 3; samples = 128; mode })
              (Array.to_list Cells.amplitudes))
          [ 2; 3 ])
      hb_oscs
  in
  let classes =
    List.concat_map (fun osc -> [ shil osc false; shil osc true ]) hb_oscs
    @ [
        hb Hb_osc;
        hb Hb_lockrange;
        List.map (fun (name, text) -> Api.Request.Scenario { name; text }) inputs.scenarios;
        List.map
          (fun (name, text) -> Api.Request.Lint { name; text })
          (inputs.scenarios @ inputs.netlists);
        List.map
          (fun t_stop ->
            Api.Request.Netlist_tran
              {
                name = tran_netlist;
                text = List.assoc tran_netlist inputs.netlists;
                t_stop;
                dt = 20e-12;
                probes = [ "t" ];
              })
          [ 100e-9; 150e-9; 200e-9 ];
        [ Ping; Ping; Ping ];
      ]
  in
  Util.interleave rng (List.map Array.of_list classes)

(* --- the daemon ------------------------------------------------------- *)

type daemon = {
  dir : string;
  thread : Thread.t;
  conns : Serve.Client.conn array;
}

let run_root = ".perfbench_run"
let root () = Filename.concat run_root (string_of_int (Unix.getpid ()))
let generation = ref 0

let mkdir_p dirs = List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) dirs

(* An empty cache: a new disk directory and a new memory tier. *)
let fresh_cache dir =
  incr generation;
  Cache.Store.set_dir (Filename.concat dir (Printf.sprintf "cache%d" !generation));
  Cache.Store.set_memory_capacity ()

let rec connect addr ~tries =
  match Serve.Client.connect addr with
  | c -> c
  | exception Resilience.Oshil_error.Error _ when tries > 0 ->
    Thread.delay 0.001;
    connect addr ~tries:(tries - 1)

let health conn =
  let line =
    Api.Request.to_string { id = "health"; deadline_s = None; payload = Health }
  in
  ignore (Serve.Client.request conn line)

(* Empty cache, server bind, both connections and a first health reply
   on each. *)
let start () =
  incr generation;
  let dir = Filename.concat (root ()) (string_of_int !generation) in
  mkdir_p [ run_root; root (); dir ];
  fresh_cache dir;
  Cache.Store.set_enabled true;
  let addr = Serve.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let cfg = { (Serve.Server.default_config addr) with workers = 1 } in
  let thread = Thread.create Serve.Server.run cfg in
  let conns = Array.init clients (fun _ -> connect addr ~tries:5000) in
  Array.iter health conns;
  { dir; thread; conns }

let stop d =
  Array.iter Serve.Client.close d.conns;
  Serve.Server.request_drain ();
  Thread.join d.thread;
  Cache.Store.set_enabled false;
  Util.remove_tree d.dir

let setup () =
  Cache.Store.set_enabled false;
  let extract_ms = Run.warm_up () in
  (start (), extract_ms)

(* --- one phase --------------------------------------------------------- *)

type sent = {
  req : Api.Request.t;
  response : string;
  rtt_ms : float;
  done_at : float;
}

(* A closed loop over the round: send a request, wait for the reply,
   send the next. Both clients walk the same round, so the worker
   alternates between them and each request runs twice back to back —
   once cold, once as a repeat queued behind it — which keeps the
   round-trip mix the same whatever the order. *)
let client conn reqs ~client ~round ~parse_ns =
  let rec loop i acc =
    if i >= Array.length reqs then acc
    else begin
      let req =
        {
          Api.Request.id = Printf.sprintf "r%d-c%d-%d" round client i;
          deadline_s = None;
          payload = reqs.(i);
        }
      in
      let line = Api.Request.to_string req in
      Option.iter
        (fun acc ->
          let _, t = Util.time (fun () -> Api.parse_request line) in
          acc := !acc +. (t *. 1e9))
        parse_ns;
      let t0 = Util.now () in
      let response, alive =
        match Serve.Client.request conn line with
        | response -> (response, true)
        | exception Resilience.Oshil_error.Error _ -> ("", false)
      in
      let t1 = Util.now () in
      let acc = { req; response; rtt_ms = (t1 -. t0) *. 1e3; done_at = t1 } :: acc in
      (* a lost connection ends the loop; its empty response fails the check *)
      if alive then loop (i + 1) acc else acc
    end
  in
  loop 0 []

(* Every response must be byte-identical to the same request executed
   in-process, and a Shil report must also carry its pinned band. Each
   distinct request runs once here, after the daemon went idle, on the
   cache it left warm; every occurrence the daemon answered, cold or
   from the cache, is checked against that. Returns the failed and
   mismatched counts and the summed render time of the answered
   reports. *)
let verify ref_tbl sent =
  let expected = Hashtbl.create 64 in
  List.fold_left
    (fun (failed, mismatches, render_ms) s ->
      let key = Api.Request.to_string { s.req with id = "" } in
      let outcome, render =
        match Hashtbl.find_opt expected key with
        | Some o -> o
        | None ->
          let o = Run.execute_split s.req in
          Hashtbl.replace expected key o;
          o
      in
      let same = String.equal s.response (Api.response_of_outcome ~id:s.req.id outcome) in
      let band_ok =
        match (s.req.payload, outcome) with
        | Shil { osc = Builtin osc; n; vi; reduced; finj = None }, Ok text ->
          Cells.check_report ref_tbl { Cells.osc; n; vi; reduced } text
        | _ -> true
      in
      let ok = same && band_ok && Result.is_ok outcome in
      ( (if ok then failed else failed + 1),
        (if same && band_ok then mismatches else mismatches + 1),
        render_ms +. render ))
    (0, 0, 0.0) sent

(* Each round starts from an empty cache, so rounds repeat the same
   work; every phase after the first also restarts the daemon. *)
let run_phase ~seed ~inputs ~ref_tbl ~daemon ~seconds ~trace =
  (match !daemon with
  | `Used d ->
    stop d;
    daemon := `Fresh (start ())
  | `Fresh _ -> ());
  let d = match !daemon with `Fresh d | `Used d -> d in
  daemon := `Used d;
  let ping_us =
    match trace with
    | None -> 0.0
    | Some _ ->
      let ping = Api.Request.to_string { id = "ping"; deadline_s = None; payload = Ping } in
      Util.median
        (List.init 50 (fun _ ->
             snd (Util.time (fun () -> Serve.Client.request d.conns.(0) ping)) *. 1e6))
  in
  let rng = Random.State.make [| seed |] in
  let parse_ns = Option.map (fun _ -> ref 0.0) trace in
  let sent = ref [] and rounds = ref 0 in
  let t_start = Util.now () in
  while Run.another_round ~seconds ~t_start ~rounds:!rounds do
    if !rounds > 0 then fresh_cache d.dir;
    let reqs = round_requests rng inputs in
    let results = Array.make clients [] in
    let threads =
      Array.init clients (fun c ->
          Thread.create
            (fun () ->
              results.(c) <- client d.conns.(c) reqs ~client:c ~round:!rounds ~parse_ns)
            ())
    in
    Array.iter Thread.join threads;
    sent := List.concat (!sent :: Array.to_list results);
    incr rounds
  done;
  let elapsed = Util.now () -. t_start in
  Option.iter Trace.take trace;
  let sent = List.sort (fun a b -> Float.compare a.done_at b.done_at) !sent in
  let failed, mismatches, render_ms = verify ref_tbl sent in
  let units = List.length sent in
  let per_unit v = v /. float_of_int (max 1 units) in
  {
    Run.lat = List.map (fun s -> s.rtt_ms) sent;
    units;
    rounds = !rounds;
    failed;
    mismatches;
    elapsed;
    data =
      {
        Trace.no_extra with
        ping_rtt_us = ping_us;
        rtt_ms = Util.mean (List.map (fun s -> s.rtt_ms) sent);
        parse_us = (match parse_ns with Some ns -> per_unit (!ns /. 1e3) | None -> 0.0);
        render_ms = per_unit render_ms;
      };
  }

let run ~seconds ~seed ~traced =
  let ref_tbl = Cells.load_reference () in
  let inputs = load_inputs () in
  let setup_s, extract_ms, d = Run.repeat_setup ~setup ~teardown:stop in
  let daemon = ref (`Fresh d) in
  Fun.protect
    ~finally:(fun () ->
      (match !daemon with `Fresh d | `Used d -> stop d);
      Util.remove_tree (root ());
      try Sys.rmdir run_root with Sys_error _ -> ())
    (fun () ->
      Run.measure ~seconds ~traced ~setup_s ~extract_ms ~notes:[]
        ~run_phase:(run_phase ~seed ~inputs ~ref_tbl ~daemon)
        ~extra:(fun _ p x ->
          {
            x with
            ping_rtt_us = p.data.ping_rtt_us;
            rtt_ms = p.data.rtt_ms;
            parse_us = p.data.parse_us;
            render_ms = p.data.render_ms;
          }))
