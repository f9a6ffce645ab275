(* Two-tier content-addressed store. The disabled fast path is a single
   atomic load so instrumented kernels cost nothing when caching is off;
   everything mutable behind it (directory, memory tier) sits under one
   mutex so pool workers can share the cache. Disk I/O runs outside the
   lock — concurrent writers of the same key race harmlessly because
   both write identical bytes and the rename is atomic. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let mu = Mutex.create ()

let with_lock f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let cache_dir = ref (Filename.concat "out" "cache")
let dir () = with_lock (fun () -> !cache_dir)
let set_dir d = with_lock (fun () -> cache_dir := d)

let memory = ref (Lru.create ())

let truthy s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "yes" | "on" -> true
  | _ -> false

let configure_from_env () =
  (match Sys.getenv_opt "OSHIL_CACHE" with
  | Some s when not (String.equal (String.trim s) "") ->
    set_enabled (truthy s)
  | _ -> ());
  match Sys.getenv_opt "OSHIL_CACHE_DIR" with
  | Some d when not (String.equal (String.trim d) "") -> set_dir d
  | _ -> ()

let publish_gauge_locked () =
  Obs.Metrics.set_gauge "cache.store_bytes" (float_of_int (Lru.bytes !memory))

let set_memory_capacity ?entries ?bytes () =
  with_lock (fun () ->
      memory := Lru.create ?max_entries:entries ?max_bytes:bytes ();
      publish_gauge_locked ())

let clear_memory () =
  with_lock (fun () ->
      Lru.clear !memory;
      publish_gauge_locked ())

let stats_bytes () = with_lock (fun () -> Lru.bytes !memory)

(* Default Marshal flags reject closures, so a value that cannot be
   reproduced bit-identically from bytes raises at [add] time instead of
   poisoning the store. *)
let to_marshal v = Marshal.to_string v []
let of_marshal s = try Some (Marshal.from_string s 0) with _ -> None

(* --- disk tier ------------------------------------------------------ *)

let header_of key = Printf.sprintf "oshil-cache/1 %s" (Key.preimage key)

let entry_path key =
  Filename.concat
    (Filename.concat (dir ()) (Key.kind key))
    (Key.digest key ^ ".bin")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if not (String.equal parent d) then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type disk_read = Disk_miss | Disk_corrupt | Disk_blob of string

let read_disk key =
  match
    In_channel.with_open_bin (entry_path key) (fun ic ->
        let header = In_channel.input_line ic in
        let blob = In_channel.input_all ic in
        (header, blob))
  with
  | exception Sys_error _ -> Disk_miss
  | Some header, blob when String.equal header (header_of key) -> Disk_blob blob
  | _ ->
    (* digest collision, truncated write or stale on-disk format: the
       header is the ground truth, so anything else is corrupt *)
    Disk_corrupt

(* A corrupt entry must never shadow a recompute: move it aside so the
   slot is free for a clean rewrite, keep the bytes around as [.bad] for
   post-mortem. Removal is the fallback when the rename itself fails. *)
let quarantine key =
  let path = entry_path key in
  (try Sys.rename path (path ^ ".bad")
   with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  Obs.Metrics.incr "cache.corrupt"

let write_disk key blob =
  try
    let shard = Filename.concat (dir ()) (Key.kind key) in
    mkdir_p shard;
    let tmp =
      Filename.concat shard
        (Printf.sprintf ".tmp.%s.%d" (Key.digest key) (Unix.getpid ()))
    in
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (header_of key);
        Out_channel.output_char oc '\n';
        Out_channel.output_string oc blob);
    Sys.rename tmp (entry_path key);
    true
  with Sys_error _ | Unix.Unix_error _ -> false

(* --- lookup / insert ------------------------------------------------ *)

let memory_find key = with_lock (fun () -> Lru.find !memory (Key.preimage key))

let memory_add key blob =
  let evicted =
    with_lock (fun () ->
        let before = Lru.evictions !memory in
        Lru.add !memory (Key.preimage key) blob;
        publish_gauge_locked ();
        Lru.evictions !memory - before)
  in
  if evicted > 0 then Obs.Metrics.incr ~by:evicted "cache.evictions"

let decoded ~tier ~decode blob =
  match decode blob with
  | Some v ->
    Obs.Metrics.incr "cache.hits";
    Obs.Metrics.incr tier;
    Some v
  | None ->
    Obs.Metrics.incr "cache.decode_failures";
    None

let find ?(memory = true) ~key ~decode () =
  if not (enabled ()) then None
  else begin
    (* per-access locality event: which tier served this key's kind *)
    let outcome = ref "miss" in
    let hit =
      match if memory then memory_find key else None with
      | Some blob ->
        let v = decoded ~tier:"cache.memory_hits" ~decode blob in
        if v <> None then outcome := "memory";
        v
      | None -> (
        match read_disk key with
        | Disk_miss -> None
        | Disk_corrupt ->
          quarantine key;
          None
        | Disk_blob blob -> (
          match decoded ~tier:"cache.disk_hits" ~decode blob with
          | Some v ->
            if memory then memory_add key blob;
            outcome := "disk";
            Some v
          | None ->
            (* header matched but the payload does not unmarshal:
               quarantine just like a bad header *)
            quarantine key;
            None))
    in
    (match hit with None -> Obs.Metrics.incr "cache.misses" | Some _ -> ());
    if Obs.Event.enabled () then
      Obs.Event.emit
        (Obs.Event.Cache_access { kind = Key.kind key; outcome = !outcome });
    hit
  end

let add ?(memory = true) ~key ~encode v =
  if enabled () then begin
    let blob = encode v in
    if memory then memory_add key blob;
    if write_disk key blob then Obs.Metrics.incr "cache.disk_writes"
  end

let find_or_compute ?(cache_if = fun _ -> true) ~key ~encode ~decode f =
  match find ~key ~decode () with
  | Some v -> v
  | None ->
    let v = f () in
    if cache_if v then add ~key ~encode v;
    v
