(* Tests for the content-addressed result cache (lib/cache): canonical
   keys, LRU tier semantics, two-tier store round-trips and corruption
   handling, and the bit-identity contract of the cached kernels. *)

module Key = Cache.Key
module Lru = Cache.Lru
module Store = Cache.Store
module Cx = Numerics.Cx

(* The store is process-global; every test starts disabled with an empty
   memory tier and a throwaway disk directory, and leaves it that way. *)
let fresh f () =
  let dir = Filename.temp_dir "oshil-test-cache" "" in
  Store.set_dir dir;
  Store.set_memory_capacity ();
  Store.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Store.set_enabled false;
      Store.set_memory_capacity ();
      let rec rm_rf p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      try rm_rf dir with Sys_error _ -> ())
    f

let key ?(kind = "test.kind") ?(version = 1) fields = Key.v ~kind ~version fields

let sample_key ?version ?(a = 1.5) ?(n = 3) () =
  key ?version [ Key.float "a" a; Key.int "n" n; Key.str "nl" "neg_tanh" ]

(* ------------------------------------------------------------------ *)
(* Key *)

let test_key_deterministic () =
  let k1 = sample_key () and k2 = sample_key () in
  Alcotest.(check string) "equal preimages" (Key.preimage k1) (Key.preimage k2);
  Alcotest.(check string) "equal digests" (Key.digest k1) (Key.digest k2)

let test_key_perturbation () =
  let base = sample_key () in
  let differs k = Alcotest.(check bool) "digest differs" false
      (String.equal (Key.digest base) (Key.digest k))
  in
  differs (sample_key ~a:1.5000000000000002 ());  (* one ulp *)
  differs (sample_key ~n:4 ());
  differs (sample_key ~version:2 ());
  differs (key ~kind:"other.kind" [ Key.float "a" 1.5; Key.int "n" 3; Key.str "nl" "neg_tanh" ])

let test_key_float_bits () =
  let k v = Key.digest (key [ Key.float "x" v ]) in
  Alcotest.(check bool) "0.0 vs -0.0 distinct" false (String.equal (k 0.0) (k (-0.0)));
  Alcotest.(check bool) "nan stable" true (String.equal (k Float.nan) (k Float.nan));
  Alcotest.(check bool) "inf distinct from max_float" false
    (String.equal (k Float.infinity) (k Float.max_float))

let test_key_sanitization () =
  (* a hostile value must not be able to smuggle in a field separator
     and alias a different field list *)
  let k1 = key [ Key.str "a" "x;b=1"; Key.int "n" 1 ] in
  let k2 = key [ Key.str "a" "x"; Key.str "b" "1"; Key.int "n" 1 ] in
  Alcotest.(check bool) "no aliasing through ';'" false
    (String.equal (Key.digest k1) (Key.digest k2));
  let k3 = key [ Key.str "a" "x|y\nz" ] in
  Alcotest.(check bool) "preimage stays single-line" false
    (String.contains (Key.preimage k3) '\n')

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_eviction_order () =
  let l = Lru.create ~max_entries:2 () in
  Lru.add l "a" "1";
  Lru.add l "b" "2";
  Lru.add l "c" "3";
  Alcotest.(check bool) "a evicted" false (Lru.mem l "a");
  Alcotest.(check bool) "b kept" true (Lru.mem l "b");
  Alcotest.(check bool) "c kept" true (Lru.mem l "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l)

let test_lru_find_refreshes () =
  let l = Lru.create ~max_entries:2 () in
  Lru.add l "a" "1";
  Lru.add l "b" "2";
  Alcotest.(check (option string)) "hit" (Some "1") (Lru.find l "a");
  Lru.add l "c" "3";
  (* "a" was refreshed by the find, so "b" is now the LRU victim *)
  Alcotest.(check bool) "a survives" true (Lru.mem l "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem l "b")

let test_lru_byte_cap () =
  let blob = String.make 200 'x' in
  let l = Lru.create ~max_entries:100 ~max_bytes:600 () in
  Lru.add l "a" blob;
  Lru.add l "b" blob;
  Lru.add l "c" blob;
  Alcotest.(check bool) "byte cap respected" true (Lru.bytes l <= 600);
  Alcotest.(check bool) "oldest gone" false (Lru.mem l "a")

let test_lru_oversized_blob () =
  let l = Lru.create ~max_entries:10 ~max_bytes:100 () in
  Lru.add l "big" (String.make 1000 'x');
  (* larger than the cap: degrades to a one-slot cache, no livelock *)
  Alcotest.(check int) "kept alone" 1 (Lru.length l);
  Alcotest.(check (option string)) "retrievable" (Some (String.make 1000 'x'))
    (Lru.find l "big")

let test_lru_replace_adjusts_bytes () =
  let l = Lru.create () in
  Lru.add l "a" (String.make 100 'x');
  let b1 = Lru.bytes l in
  Lru.add l "a" (String.make 10 'y');
  Alcotest.(check int) "still one entry" 1 (Lru.length l);
  Alcotest.(check int) "bytes shrank by 90" (b1 - 90) (Lru.bytes l);
  Lru.clear l;
  Alcotest.(check int) "clear empties" 0 (Lru.length l);
  Alcotest.(check int) "clear zeroes bytes" 0 (Lru.bytes l)

(* ------------------------------------------------------------------ *)
(* Store *)

let roundtrip_value = [| 1.0; Float.pi; -0.0; 1e-300 |]

let test_store_disabled_is_inert () =
  let k = sample_key () in
  Store.add ~key:k ~encode:Store.to_marshal roundtrip_value;
  Alcotest.(check bool) "find misses while disabled" true
    (Store.find ~key:k ~decode:Store.of_marshal () = (None : float array option));
  Alcotest.(check int) "memory untouched" 0 (Store.stats_bytes ());
  Alcotest.(check bool) "disk untouched" true
    (Sys.readdir (Store.dir ()) = [||])

let entry_path k =
  Filename.concat (Filename.concat (Store.dir ()) (Key.kind k)) (Key.digest k ^ ".bin")

let shard_exists kind = Sys.file_exists (Filename.concat (Store.dir ()) kind)

let bit_equal a b =
  Array.for_all2
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
    a b

let test_store_memory_roundtrip () =
  Store.set_enabled true;
  let k = sample_key () in
  Store.add ~key:k ~encode:Store.to_marshal roundtrip_value;
  (* with the disk copy gone only the memory tier can answer *)
  Sys.remove (entry_path k);
  match Store.find ~key:k ~decode:Store.of_marshal () with
  | None -> Alcotest.fail "expected a memory hit"
  | Some (v : float array) ->
    Alcotest.(check bool) "bit-identical floats" true (bit_equal roundtrip_value v)

let test_store_disk_only_entries () =
  Store.set_enabled true;
  let k = sample_key () in
  Store.add ~memory:false ~key:k ~encode:Store.to_marshal roundtrip_value;
  Alcotest.(check int) "memory tier untouched" 0 (Store.stats_bytes ());
  Alcotest.(check bool) "entry on disk" true (Sys.file_exists (entry_path k));
  (match Store.find ~memory:false ~key:k ~decode:Store.of_marshal () with
  | None -> Alcotest.fail "expected a disk hit"
  | Some (v : float array) ->
    Alcotest.(check bool) "bit-identical floats" true (bit_equal roundtrip_value v));
  Alcotest.(check int) "disk hit not promoted" 0 (Store.stats_bytes ());
  (* a default lookup of the same key still promotes *)
  ignore (Store.find ~key:k ~decode:(Store.of_marshal : string -> float array option) ());
  Alcotest.(check bool) "default find promotes" true (Store.stats_bytes () > 0)

let test_store_disk_roundtrip () =
  Store.set_enabled true;
  let k = sample_key () in
  Store.add ~key:k ~encode:Store.to_marshal roundtrip_value;
  Store.clear_memory ();
  (match Store.find ~key:k ~decode:Store.of_marshal () with
  | None -> Alcotest.fail "expected a disk hit"
  | Some (v : float array) ->
    Alcotest.(check bool) "bit-identical after disk trip" true
      (bit_equal roundtrip_value v));
  (* the disk hit promoted the entry back into the memory tier *)
  Alcotest.(check bool) "promoted to memory" true (Store.stats_bytes () > 0)

let test_store_version_invalidates () =
  Store.set_enabled true;
  Store.add ~key:(sample_key ~version:1 ()) ~encode:Store.to_marshal roundtrip_value;
  Store.clear_memory ();
  Alcotest.(check bool) "v2 key misses v1 entry" true
    (Store.find ~key:(sample_key ~version:2 ()) ~decode:Store.of_marshal ()
     = (None : float array option))

let test_store_corrupt_disk_entry () =
  Store.set_enabled true;
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let k = sample_key () in
  Store.add ~key:k ~encode:Store.to_marshal roundtrip_value;
  Store.clear_memory ();
  (* truncate the entry mid-blob: header verification + decode must turn
     it into a quarantined miss, never an exception or garbage *)
  let path = entry_path k in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents / 2)));
  Alcotest.(check bool) "truncated entry is a miss" true
    (Store.find ~key:k ~decode:Store.of_marshal () = (None : float array option));
  Alcotest.(check bool) "truncated entry quarantined to .bad" true
    (Sys.file_exists (path ^ ".bad"));
  Alcotest.(check bool) "quarantined entry vacates the slot" false
    (Sys.file_exists path);
  Alcotest.(check int) "cache.corrupt bumped" 1
    (Obs.Metrics.counter_value "cache.corrupt");
  Sys.remove (path ^ ".bad");
  (* a garbage header too *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "oshil-cache/1 wrong-preimage\njunk");
  Alcotest.(check bool) "wrong header is a miss" true
    (Store.find ~key:k ~decode:Store.of_marshal () = (None : float array option));
  Alcotest.(check int) "wrong header also quarantined" 2
    (Obs.Metrics.counter_value "cache.corrupt");
  Sys.remove (path ^ ".bad");
  (* header intact but payload does not unmarshal: quarantined as well *)
  Store.add ~key:k ~encode:Store.to_marshal roundtrip_value;
  Store.clear_memory ();
  let good = In_channel.with_open_bin path In_channel.input_all in
  let header_len = 1 + String.index good '\n' in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub good 0 header_len);
      Out_channel.output_string oc "not-a-marshalled-blob");
  Alcotest.(check bool) "undecodable payload is a miss" true
    (Store.find ~key:k ~decode:Store.of_marshal () = (None : float array option));
  Alcotest.(check int) "undecodable payload quarantined" 3
    (Obs.Metrics.counter_value "cache.corrupt");
  (* the slot is writable again: recompute repopulates and hits *)
  Store.add ~key:k ~encode:Store.to_marshal roundtrip_value;
  Store.clear_memory ();
  Alcotest.(check bool) "recompute repopulates the slot" true
    (Store.find ~key:k ~decode:Store.of_marshal ()
    <> (None : float array option))

let test_store_find_or_compute () =
  Store.set_enabled true;
  let k = sample_key () in
  let calls = ref 0 in
  let f () = incr calls; 42 in
  let v1 =
    Store.find_or_compute ~key:k ~encode:Store.to_marshal
      ~decode:Store.of_marshal f
  in
  let v2 =
    Store.find_or_compute ~key:k ~encode:Store.to_marshal
      ~decode:Store.of_marshal f
  in
  Alcotest.(check int) "same value" v1 v2;
  Alcotest.(check int) "computed once" 1 !calls

let test_store_cache_if_rejects () =
  Store.set_enabled true;
  let k = sample_key () in
  let calls = ref 0 in
  let f () = incr calls; 42 in
  let fc () =
    Store.find_or_compute ~key:k ~cache_if:(fun _ -> false)
      ~encode:Store.to_marshal ~decode:Store.of_marshal f
  in
  ignore (fc ());
  ignore (fc ());
  Alcotest.(check int) "recomputed every call" 2 !calls

let test_store_metrics () =
  Store.set_enabled true;
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let k = sample_key () in
      Alcotest.(check bool) "miss" true
        (Store.find ~key:k ~decode:Store.of_marshal () = (None : int option));
      Store.add ~key:k ~encode:Store.to_marshal 1;
      ignore (Store.find ~key:k ~decode:(Store.of_marshal : string -> int option) ());
      Store.clear_memory ();
      ignore (Store.find ~key:k ~decode:(Store.of_marshal : string -> int option) ());
      Alcotest.(check int) "one miss" 1 (Obs.Metrics.counter_value "cache.misses");
      Alcotest.(check int) "two hits" 2 (Obs.Metrics.counter_value "cache.hits");
      Alcotest.(check int) "one memory hit" 1
        (Obs.Metrics.counter_value "cache.memory_hits");
      Alcotest.(check int) "one disk hit" 1
        (Obs.Metrics.counter_value "cache.disk_hits");
      Alcotest.(check int) "one disk write" 1
        (Obs.Metrics.counter_value "cache.disk_writes"))

let test_store_env_config () =
  (* configure_from_env only reads the environment; drive it via the
     documented variables using a child-free putenv *)
  Unix.putenv "OSHIL_CACHE" "1";
  Unix.putenv "OSHIL_CACHE_DIR" "/tmp/oshil-env-cache";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "OSHIL_CACHE" "";
      Unix.putenv "OSHIL_CACHE_DIR" "";
      Store.set_enabled false)
    (fun () ->
      Store.configure_from_env ();
      Alcotest.(check bool) "enabled from env" true (Store.enabled ());
      Alcotest.(check string) "dir from env" "/tmp/oshil-env-cache" (Store.dir ());
      (* empty values change nothing *)
      Unix.putenv "OSHIL_CACHE" "";
      Unix.putenv "OSHIL_CACHE_DIR" "";
      Store.configure_from_env ();
      Alcotest.(check bool) "still enabled" true (Store.enabled ());
      Unix.putenv "OSHIL_CACHE" "0";
      Store.configure_from_env ();
      Alcotest.(check bool) "0 disables" false (Store.enabled ()))

(* ------------------------------------------------------------------ *)
(* Nonlinearity identities *)

let test_nonlinearity_keys () =
  let open Shil.Nonlinearity in
  let k nl = cache_key nl in
  let same a b = Alcotest.(check (option string)) "equal keys" (k a) (k b) in
  let distinct a b =
    Alcotest.(check bool) "distinct keys" false (k a = k b || k a = None)
  in
  same (neg_tanh ~g0:2e-3 ~isat:1e-3) (neg_tanh ~g0:2e-3 ~isat:1e-3);
  distinct (neg_tanh ~g0:2e-3 ~isat:1e-3) (neg_tanh ~g0:3e-3 ~isat:1e-3);
  distinct (cubic ~g1:1e-3 ~g3:1e-4) (cubic ~g1:1e-3 ~g3:2e-4);
  distinct (neg_tanh ~g0:2e-3 ~isat:1e-3)
    (scale_current (neg_tanh ~g0:2e-3 ~isat:1e-3) 2.0);
  distinct (neg_tanh ~g0:2e-3 ~isat:1e-3)
    (shift_bias (neg_tanh ~g0:2e-3 ~isat:1e-3) 0.1);
  Alcotest.(check (option string)) "custom closures are uncacheable" None
    (k (make (fun v -> -.v)));
  (* every tunnel model is keyed: each of the six fields and the bias
     moves the key *)
  let td ?(model = paper_tunnel) ?(bias = 0.1) () = tunnel_diode ~model ~bias () in
  Alcotest.(check bool) "default tunnel model is cacheable" true
    (k (td ()) <> None);
  same (td ()) (td ~model:{ paper_tunnel with m = 2.0 } ());
  let p = paper_tunnel in
  List.iter
    (fun other -> distinct (td ()) other)
    [
      td ~model:{ p with is = 2e-12 } ();
      td ~model:{ p with eta = 1.1 } ();
      td ~model:{ p with vth = 0.026 } ();
      td ~model:{ p with r0 = 900.0 } ();
      td ~model:{ p with v0 = 0.21 } ();
      td ~model:{ p with m = 2.5 } ();
      td ~bias:0.11 ();
    ];
  Alcotest.(check bool) "Tunnel_osc.default is cacheable" true
    (k
       (Circuits.Tunnel_osc.oscillator Circuits.Tunnel_osc.default)
         .Shil.Analysis.nl
    <> None);
  let t1 = of_table ~vs:[| 0.0; 1.0 |] ~is:[| 0.0; 1e-3 |] () in
  let t2 = of_table ~vs:[| 0.0; 1.0 |] ~is:[| 0.0; 1e-3 |] () in
  let t3 = of_table ~vs:[| 0.0; 1.0 |] ~is:[| 0.0; 2e-3 |] () in
  same t1 t2;
  distinct t1 t3

(* ------------------------------------------------------------------ *)
(* Kernel bit-identity: the hard guarantee of the tentpole *)

let i1_bits g =
  Array.map
    (Array.map (fun z -> (Int64.bits_of_float (Cx.re z), Int64.bits_of_float (Cx.im z))))
    g.Shil.Grid.i1

let small_grid () =
  Shil.Grid.sample ~points:128 ~n_phi:13 ~n_amp:9
    (Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3)
    ~n:3 ~r:1e3 ~vi:0.05 ~a_range:(0.3, 1.45) ()

let test_grid_cache_bit_identity () =
  let cold = small_grid () in
  Store.set_enabled true;
  let populate = small_grid () in
  let warm = small_grid () in
  Store.set_enabled false;
  let disabled_again = small_grid () in
  Alcotest.(check bool) "populate == cold" true (i1_bits populate = i1_bits cold);
  Alcotest.(check bool) "warm hit == cold" true (i1_bits warm = i1_bits cold);
  Alcotest.(check bool) "disabled again == cold" true
    (i1_bits disabled_again = i1_bits cold);
  Alcotest.(check bool) "warm grid is clean" true
    (Resilience.Summary.is_clean warm.failures)

(* a hit reports the same attempted count as the run that stored it:
   the computed rows, half of them (rounded up) under mirroring *)
let test_grid_cache_attempted () =
  let grid reduction =
    Shil.Grid.sample ~points:128 ~n_phi:13 ~n_amp:9 ~reduction
      (Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3)
      ~n:3 ~r:1e3 ~vi:0.05 ~a_range:(0.3, 1.45) ()
  in
  Store.set_enabled true;
  List.iter
    (fun (name, reduction, rows) ->
      let cold = grid reduction in
      let hit = grid reduction in
      Alcotest.(check int) (name ^ ": cold") rows cold.failures.attempted;
      Alcotest.(check int) (name ^ ": hit") rows hit.failures.attempted)
    [ ("exact", `Exact, 13); ("mirrored", `Symmetry, 7) ]

let test_grid_cache_disk_only_hit () =
  Store.set_enabled true;
  ignore (small_grid ());
  Store.clear_memory ();
  let from_disk = small_grid () in
  Store.set_enabled false;
  let cold = small_grid () in
  Alcotest.(check bool) "disk replay == cold" true
    (i1_bits from_disk = i1_bits cold)

let test_uncacheable_nl_bypasses () =
  Store.set_enabled true;
  let nl = Shil.Nonlinearity.make (fun v -> -2e-3 *. v) in
  ignore
    (Shil.Grid.sample ~points:64 ~n_phi:5 ~n_amp:5 nl ~n:3 ~r:1e3 ~vi:0.05
       ~a_range:(0.3, 1.45) ());
  Alcotest.(check int) "nothing stored" 0 (Store.stats_bytes ());
  Alcotest.(check bool) "no disk shard" true
    (not (Sys.file_exists (Filename.concat (Store.dir ()) "shil.grid")))

let test_faulty_grid_not_cached () =
  Store.set_enabled true;
  (match Resilience.Fault.configure "grid-point@0" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Resilience.Fault.clear ();
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let holed = small_grid () in
      Alcotest.(check bool) "grid has holes" false
        (Resilience.Summary.is_clean holed.failures);
      Alcotest.(check bool) "holed grid not stored" false
        (shard_exists "shil.grid"))

let tanh_nl = Shil.Nonlinearity.neg_tanh ~g0:2e-3 ~isat:1e-3

let small_tank =
  let wc = 2.0 *. Float.pi *. 1e6 in
  Shil.Tank.make ~r:1e3 ~l:(100.0 /. wc) ~c:(1.0 /. (100.0 *. wc))

let natural_bits sols =
  List.concat_map
    (fun (s : Shil.Natural.solution) ->
      [ Int64.bits_of_float s.a; Int64.bits_of_float s.slope ])
    sols

let lock_range_bits (lr : Shil.Lock_range.t) =
  List.map Int64.bits_of_float
    ([
       lr.phi_d_max; lr.f_osc_low; lr.f_osc_high; lr.f_inj_low; lr.f_inj_high;
       lr.delta_f_inj;
     ]
    @ List.concat_map
        (fun (p : Shil.Solutions.point) -> [ p.phi; p.a; p.trace; p.det ])
        lr.at_center)

let predict_small () =
  Shil.Lock_range.predict ~points:128 ~tol:1e-3 (small_grid ()) ~tank:small_tank

let test_df_analysis_cache_identity () =
  let natural () = Shil.Natural.solve ~points:256 tanh_nl ~r:1e3 in
  let stated () = Shil.Natural.solve_within ~tol:1e-6 tanh_nl ~r:1e3 in
  let cold_nat = natural () and cold_lr = predict_small () in
  let cold_st = stated () in
  Store.set_enabled true;
  let pop_nat = natural () and pop_lr = predict_small () in
  let pop_st = stated () in
  let warm_nat = natural () and warm_lr = predict_small () in
  let warm_st = stated () in
  Store.clear_memory ();
  let disk_nat = natural () and disk_lr = predict_small () in
  let disk_st = stated () in
  Store.set_enabled false;
  List.iter
    (fun (what, st) ->
      Alcotest.(check bool) ("stated natural " ^ what ^ " == cold") true
        (natural_bits st = natural_bits cold_st))
    [ ("populate", pop_st); ("warm", warm_st); ("disk replay", disk_st) ];
  Alcotest.(check bool) "natural populate == cold" true
    (natural_bits pop_nat = natural_bits cold_nat);
  Alcotest.(check bool) "natural warm == cold" true
    (natural_bits warm_nat = natural_bits cold_nat);
  Alcotest.(check bool) "natural disk replay == cold" true
    (natural_bits disk_nat = natural_bits cold_nat);
  Alcotest.(check bool) "lock range populate == cold" true
    (lock_range_bits pop_lr = lock_range_bits cold_lr);
  Alcotest.(check bool) "lock range warm == cold" true
    (lock_range_bits warm_lr = lock_range_bits cold_lr);
  Alcotest.(check bool) "lock range disk replay == cold" true
    (lock_range_bits disk_lr = lock_range_bits cold_lr);
  Alcotest.(check bool) "cached lock range is clean" true
    (Resilience.Summary.is_clean warm_lr.failures);
  List.iter
    (fun kind -> Alcotest.(check bool) (kind ^ " on disk") true (shard_exists kind))
    [ "shil.natural"; "shil.lockrange"; "shil.grid" ];
  (* the per-coefficient tier is gone *)
  Alcotest.(check bool) "no shil.df on disk" false (shard_exists "shil.df")

let with_faults plan f =
  (match Resilience.Fault.configure plan with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Resilience.Fault.clear f

let test_holed_lock_range_not_cached () =
  Store.set_enabled true;
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let holed = with_faults "lock-probe@0x3" predict_small in
      Alcotest.(check bool) "prediction has holes" false
        (Resilience.Summary.is_clean holed.failures);
      Alcotest.(check bool) "holed prediction not stored" false
        (shard_exists "shil.lockrange");
      (* a spent deadline is no verdict: the prediction raises on a
         clean grid, and nothing is stored *)
      let g = small_grid () in
      (match
         Resilience.Deadline.with_deadline ~seconds:0.0 (fun () ->
             Shil.Lock_range.predict ~points:128 ~tol:1e-3 g ~tank:small_tank)
       with
      | _ -> Alcotest.fail "a spent deadline must raise"
      | exception Resilience.Oshil_error.Error e ->
        Alcotest.(check string) "typed budget-exhausted" "budget-exhausted"
          (Resilience.Oshil_error.code e));
      Alcotest.(check bool) "deadline-cut prediction not stored" false
        (shard_exists "shil.lockrange");
      let clean = predict_small () in
      Alcotest.(check bool) "clean rerun is clean" true
        (Resilience.Summary.is_clean clean.failures);
      Alcotest.(check bool) "clean prediction stored" true
        (shard_exists "shil.lockrange"))

(* A faulted refine drops lock points without recording a hole, so an
   armed fault plan must keep the lock-range entry out of both
   directions: nothing stored, nothing served. *)
let test_faulted_lock_range_bypasses () =
  let cold = predict_small () in
  Store.set_enabled true;
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      ignore (with_faults "roots-fail@0" predict_small);
      Alcotest.(check bool) "fault fired" true
        (Obs.Metrics.counter_value "resilience.faults.roots-fail" > 0);
      Alcotest.(check bool) "faulted prediction not stored" false
        (shard_exists "shil.lockrange");
      let clean = predict_small () in
      Alcotest.(check bool) "clean rerun == cold" true
        (lock_range_bits clean = lock_range_bits cold);
      Alcotest.(check bool) "clean prediction stored" true
        (shard_exists "shil.lockrange");
      (* a stored entry is not served to a faulted run either: the
         planned fault still fires *)
      Obs.reset ();
      ignore (with_faults "roots-fail@0" predict_small);
      Alcotest.(check bool) "fault fires despite a stored entry" true
        (Obs.Metrics.counter_value "resilience.faults.roots-fail" > 0))

let test_grid_tiles_disk_only () =
  Store.set_enabled true;
  let g = small_grid () in
  Alcotest.(check bool) "grid is clean" true
    (Resilience.Summary.is_clean g.failures);
  Alcotest.(check int) "no tile in the memory tier" 0 (Store.stats_bytes ());
  Alcotest.(check bool) "tile on disk" true (shard_exists "shil.grid");
  let again = small_grid () in
  Alcotest.(check bool) "disk hit == first run" true (i1_bits again = i1_bits g);
  Alcotest.(check int) "disk hit not promoted" 0 (Store.stats_bytes ())

(* The daemon's cache contract on the whole request path: a repeat
   answers from the shil.lockrange entry, with the bytes of a cache-off
   run and none of the boundary search or grid work. *)
let test_repeated_shil_request () =
  (* the tunnel oscillator's built-in model is keyed like tanh's *)
  List.iter
    (fun osc ->
      let req =
        {
          Api.Request.id = "r";
          deadline_s = None;
          payload =
            Shil { osc = Builtin osc; n = 3; vi = 0.03; reduced = false; finj = None };
        }
      in
      let run () =
        match Api.execute req with
        | Ok report -> report
        | Error e -> Alcotest.fail (Resilience.Oshil_error.to_string e)
      in
      Store.set_enabled false;
      let cold = run () in
      Store.set_enabled true;
      Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.set_enabled false;
          Obs.reset ())
        (fun () ->
          let first = run () in
          let counter = Obs.Metrics.counter_value in
          let probes = counter "shil.lockrange.probes"
          and f_evals = counter "shil.grid.f_evals" in
          Alcotest.(check bool) (osc ^ ": first run searched") true
            (probes > 0 && f_evals > 0);
          let repeat = run () in
          Alcotest.(check string) (osc ^ ": populate == cache off") cold first;
          Alcotest.(check string) (osc ^ ": repeat == cache off") cold repeat;
          Alcotest.(check int) (osc ^ ": repeat adds no lock-range probes")
            probes
            (counter "shil.lockrange.probes");
          Alcotest.(check int) (osc ^ ": repeat adds no grid work") f_evals
            (counter "shil.grid.f_evals")))
    [ "tanh"; "tunnel" ]

let test_transient_cache_identity () =
  (* the BJT differential pair is pure data (no behavioural device), so
     its transients are cacheable *)
  let params = Circuits.Diff_pair.default in
  let circuit = Circuits.Diff_pair.circuit params in
  let fc = Shil.Tank.f_c (Circuits.Diff_pair.tank params) in
  let dt = 1.0 /. (fc *. 80.0) in
  let opts = Spice.Transient.default_options ~dt ~t_stop:(3.0 /. fc) in
  let probes = [ Circuits.Diff_pair.osc_probe ] in
  let run () = Spice.Transient.run circuit ~probes opts in
  let cold = run () in
  Store.set_enabled true;
  ignore (run ());
  let warm = run () in
  Store.set_enabled false;
  let bits a = Array.map Int64.bits_of_float a in
  Alcotest.(check bool) "times bit-identical" true
    (bits cold.Spice.Transient.times = bits warm.Spice.Transient.times);
  List.iter2
    (fun (_, c) (_, w) ->
      Alcotest.(check bool) "signal bit-identical" true (bits c = bits w))
    cold.signals warm.signals;
  Alcotest.(check bool) "complete run was cached" true (Store.stats_bytes () > 0);
  (* the entry's header carries the key version: v2 since each step's
     Newton start is extrapolated, so v1 waveforms never replay *)
  let shard = Filename.concat (Store.dir ()) "spice.transient" in
  let headers =
    Array.to_list (Sys.readdir shard)
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat shard f) In_channel.input_line)
  in
  Alcotest.(check bool) "one spice.transient/v2 entry" true
    (match headers with
    | [ Some h ] ->
      String.starts_with ~prefix:"oshil-cache/1 spice.transient/v2|" h
    | _ -> false)

let test_transient_closure_circuit_bypasses () =
  (* a circuit with a behavioural Nonlinear_cs device must never be
     cached: its closure has no canonical identity *)
  Store.set_enabled true;
  let params = Circuits.Tanh_osc.default in
  let circuit = Circuits.Tanh_osc.circuit params in
  let has_closure =
    List.exists
      (function Spice.Device.Nonlinear_cs _ -> true | _ -> false)
      (Spice.Circuit.devices circuit)
  in
  (* Tanh_osc is precisely the behavioural cell, so the transient test
     above would only cache if the gate were broken -- assert the gate
     sees it *)
  Alcotest.(check bool) "tanh osc is behavioural" true has_closure;
  let fc = Shil.Tank.f_c (Circuits.Tanh_osc.tank params) in
  let dt = 1.0 /. (fc *. 80.0) in
  ignore
    (Spice.Transient.run circuit
       ~probes:[ Spice.Transient.Node "t" ]
       (Spice.Transient.default_options ~dt ~t_stop:(2.0 /. fc)));
  Alcotest.(check bool) "no spice.transient shard" true
    (not (Sys.file_exists (Filename.concat (Store.dir ()) "spice.transient")))

(* ------------------------------------------------------------------ *)
(* qcheck: key stability laws *)

let qtest = Qseed.qtest

let props =
  [
    qtest ~count:100 "key: equal inputs hash equal"
      QCheck.(triple (float_range (-10.0) 10.0) small_nat (float_range 0.0 6.3))
      (fun (a, n, phi) ->
        let mk () =
          Key.v ~kind:"t" ~version:1
            [ Key.float "a" a; Key.int "n" n; Key.float "phi" phi ]
        in
        String.equal (Key.digest (mk ())) (Key.digest (mk ())));
    qtest ~count:100 "key: ulp perturbation changes digest"
      QCheck.(float_range 0.1 10.0)
      (fun a ->
        let bumped = Int64.float_of_bits (Int64.add (Int64.bits_of_float a) 1L) in
        let d v = Key.digest (Key.v ~kind:"t" ~version:1 [ Key.float "a" v ]) in
        not (String.equal (d a) (d bumped)));
    qtest ~count:100 "key: field order is significant"
      QCheck.(pair (float_range 0.1 10.0) (float_range 0.1 10.0))
      (fun (a, b) ->
        (* same name=value pairs, different order: the preimage is a
           positional rendering, so the digests must differ *)
        let d fields = Key.digest (Key.v ~kind:"t" ~version:1 fields) in
        not
          (String.equal
             (d [ Key.float "a" a; Key.float "b" b ])
             (d [ Key.float "b" b; Key.float "a" a ])));
    qtest ~count:50 "lru: never exceeds caps"
      QCheck.(list_of_size Gen.(int_range 1 60) (string_of_size Gen.(int_range 1 40)))
      (fun blobs ->
        let l = Lru.create ~max_entries:16 ~max_bytes:2048 () in
        List.iteri (fun i b -> Lru.add l (string_of_int (i mod 24)) b) blobs;
        Lru.length l <= 16 && (Lru.bytes l <= 2048 || Lru.length l = 1));
    qtest ~count:50 "store: marshal round-trips float arrays bit-exactly"
      QCheck.(array_of_size Gen.(int_range 0 64) float)
      (fun xs ->
        match Store.of_marshal (Store.to_marshal xs) with
        | None -> false
        | Some (ys : float array) ->
          Array.length xs = Array.length ys
          && Array.for_all2
               (fun a b ->
                 Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               xs ys);
  ]

let () =
  Alcotest.run "cache"
    [
      ( "key",
        [
          Alcotest.test_case "deterministic" `Quick (fresh test_key_deterministic);
          Alcotest.test_case "perturbation changes digest" `Quick
            (fresh test_key_perturbation);
          Alcotest.test_case "float fields are bit-exact" `Quick
            (fresh test_key_float_bits);
          Alcotest.test_case "separator sanitization" `Quick
            (fresh test_key_sanitization);
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick (fresh test_lru_eviction_order);
          Alcotest.test_case "find refreshes recency" `Quick
            (fresh test_lru_find_refreshes);
          Alcotest.test_case "byte cap" `Quick (fresh test_lru_byte_cap);
          Alcotest.test_case "oversized blob degrades" `Quick
            (fresh test_lru_oversized_blob);
          Alcotest.test_case "replace adjusts bytes" `Quick
            (fresh test_lru_replace_adjusts_bytes);
        ] );
      ( "store",
        [
          Alcotest.test_case "disabled is inert" `Quick
            (fresh test_store_disabled_is_inert);
          Alcotest.test_case "memory round-trip" `Quick
            (fresh test_store_memory_roundtrip);
          Alcotest.test_case "disk-only entries (~memory:false)" `Quick
            (fresh test_store_disk_only_entries);
          Alcotest.test_case "disk round-trip + promotion" `Quick
            (fresh test_store_disk_roundtrip);
          Alcotest.test_case "version bump invalidates" `Quick
            (fresh test_store_version_invalidates);
          Alcotest.test_case "corrupt disk entries are misses" `Quick
            (fresh test_store_corrupt_disk_entry);
          Alcotest.test_case "find_or_compute memoizes" `Quick
            (fresh test_store_find_or_compute);
          Alcotest.test_case "cache_if gate" `Quick
            (fresh test_store_cache_if_rejects);
          Alcotest.test_case "cache.* metrics" `Quick (fresh test_store_metrics);
          Alcotest.test_case "env configuration" `Quick
            (fresh test_store_env_config);
        ] );
      ( "kernels",
        [
          Alcotest.test_case "nonlinearity cache keys" `Quick
            (fresh test_nonlinearity_keys);
          Alcotest.test_case "grid: cold/warm/disabled bit-identity" `Quick
            (fresh test_grid_cache_bit_identity);
          Alcotest.test_case "grid: disk-only replay" `Quick
            (fresh test_grid_cache_disk_only_hit);
          Alcotest.test_case "grid: a hit reports the computed rows" `Quick
            (fresh test_grid_cache_attempted);
          Alcotest.test_case "grid: custom nl bypasses cache" `Quick
            (fresh test_uncacheable_nl_bypasses);
          Alcotest.test_case "grid: holed grids are not stored" `Quick
            (fresh test_faulty_grid_not_cached);
          Alcotest.test_case "grid: tiles stay on the disk tier" `Quick
            (fresh test_grid_tiles_disk_only);
          Alcotest.test_case "df: analysis cache bit-identity" `Quick
            (fresh test_df_analysis_cache_identity);
          Alcotest.test_case "lockrange: holed results not stored" `Quick
            (fresh test_holed_lock_range_not_cached);
          Alcotest.test_case "lockrange: fault plans bypass the cache" `Quick
            (fresh test_faulted_lock_range_bypasses);
          Alcotest.test_case "api: repeated shil hits the cache" `Quick
            (fresh test_repeated_shil_request);
          Alcotest.test_case "transient: waveform cache bit-identity" `Quick
            (fresh test_transient_cache_identity);
          Alcotest.test_case "transient: behavioural circuits bypass" `Quick
            (fresh test_transient_closure_circuit_bypasses);
        ] );
      ("properties", props);
    ]
