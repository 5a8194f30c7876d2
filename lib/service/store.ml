(* The durable key -> response file: CRC-checked records, a byte-position
   index and cross-handle refresh.  See store.mli for the record format
   and the contract.

   Locking story.  [t.lock] guards every field of one handle.  Writers
   (add/compact) additionally take [append_guard] — one mutex for the
   whole process, because POSIX file locks are per-(process, inode) and
   would not exclude two handles in the same process — and then an OS
   [lockf] exclusive lock for cross-process exclusion.  A writer
   re-stats the path *after* acquiring the file lock: if the inode
   changed (another process compacted, swapping the file by rename), it
   reopens and retries, so no record is ever written to an unlinked
   file. *)

module E = Dls.Errors

(* Table-driven CRC-32, reflected polynomial 0xEDB88320 (the IEEE
   variant used by gzip/zlib).  Good enough to catch torn writes and
   bit rot; this is an integrity check, not an authenticity one. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* Fold [len] bytes of [s] from [off] into a running, pre-inverted CRC. *)
let crc_update c s off len =
  let table = Lazy.force crc_table in
  let c = ref c in
  for i = off to off + len - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    c := table.((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let crc_init = 0xFFFFFFFF
let crc_finish c = c lxor 0xFFFFFFFF
let crc32 s = crc_finish (crc_update crc_init s 0 (String.length s))

(* CRC of the payload [key ^ "\n" ^ value], without building it. *)
let payload_crc ~key ~value =
  let c = crc_update crc_init key 0 (String.length key) in
  crc_finish (crc_update (crc_update c "\n" 0 1) value 0 (String.length value))

(* One record, with its payload CRC [crc] computed by the caller. *)
let render ~crc ~key ~value =
  Printf.sprintf "rec %08x %d %d\n%s\n%s\n" crc (String.length key)
    (String.length value) key value

type entry = { voff : int; vlen : int; crc : int }

(* The record scanner.  Walks the valid record prefix of [s] — file bytes
   starting at absolute offset [base] — and calls [f key entry] on each
   record in order, with [entry.voff] absolute.  Each record's CRC is
   computed once, straight over its [key \n value] slice.  Returns the
   absolute offset just past the last good record.  Boundaries come from
   each header's lengths, so the walk stops at the first bad record:
   nothing after it is reachable. *)
let scan ~base s f =
  let len = String.length s in
  let rec go pos =
    match String.index_from_opt s pos '\n' with
    | None -> pos
    | Some eol -> (
      match String.split_on_char ' ' (String.sub s pos (eol - pos)) with
      | [ "rec"; crc_hex; klen_s; vlen_s ] -> (
        match
          ( int_of_string_opt ("0x" ^ crc_hex),
            int_of_string_opt klen_s,
            int_of_string_opt vlen_s )
        with
        | Some crc, Some klen, Some vlen
          when klen >= 0 && vlen >= 0 && klen <= len && vlen <= len
               && eol + klen + vlen + 3 <= len
               && s.[eol + 1 + klen] = '\n'
               && s.[eol + klen + vlen + 2] = '\n'
               && crc
                  = crc_finish (crc_update crc_init s (eol + 1) (klen + 1 + vlen))
          ->
          f (String.sub s (eol + 1) klen)
            { voff = base + eol + klen + 2; vlen; crc };
          go (eol + klen + vlen + 3)
        | _ -> pos)
      | _ -> pos)
  in
  base + go 0

type t = {
  path : string;
  sync : bool;
  lock : Mutex.t;
  index : (string, entry) Hashtbl.t;
  mutable fd : Unix.file_descr;
  mutable ino : int;
  mutable scanned : int;  (* bytes absorbed into the index *)
  mutable hits : int;
  mutable misses : int;
  mutable appended : int;
  mutable compactions : int;
  mutable closed : bool;
}

type stats = { hits : int; misses : int; appended : int; compactions : int }

let append_guard = Mutex.create ()

let io_error ctx e =
  E.Io_error (Printf.sprintf "store %s: %s" ctx (Unix.error_message e))

let read_exactly fd off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec fill got =
    if got < len then
      match Unix.read fd b got (len - got) with
      | 0 -> got
      | n -> fill (got + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill got
    else got
  in
  let got = fill 0 in
  Bytes.sub_string b 0 got

let write_all fd s =
  let len = String.length s in
  let rec write off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
  in
  write 0

(* Absorb whatever the file has grown (or turned into) since the last
   look.  With [t.lock] held. *)
let refresh_locked t =
  match Unix.stat t.path with
  | exception Unix.Unix_error (_, _, _) -> ()
  | st ->
      if st.Unix.st_ino <> t.ino then begin
        (* Another process compacted: the path is a fresh inode. *)
        (try Unix.close t.fd with Unix.Unix_error _ -> ());
        t.fd <- Unix.openfile t.path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644;
        t.ino <- (Unix.fstat t.fd).Unix.st_ino;
        t.scanned <- 0;
        Hashtbl.reset t.index
      end;
      let size = (Unix.fstat t.fd).Unix.st_size in
      if size > t.scanned then begin
        let tail = read_exactly t.fd t.scanned (size - t.scanned) in
        t.scanned <- scan ~base:t.scanned tail (Hashtbl.replace t.index)
      end

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | x ->
      Mutex.unlock t.lock;
      x
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let open_ ?(sync = false) path =
  match
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    let t =
      {
        path;
        sync;
        lock = Mutex.create ();
        index = Hashtbl.create 256;
        fd;
        ino = (Unix.fstat fd).Unix.st_ino;
        scanned = 0;
        hits = 0;
        misses = 0;
        appended = 0;
        compactions = 0;
        closed = false;
      }
    in
    refresh_locked t;
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, _, _) ->
      Error (E.Io_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))

let find t key =
  with_lock t (fun () ->
      if t.closed then None
      else begin
        refresh_locked t;
        match Hashtbl.find_opt t.index key with
        | None ->
            t.misses <- t.misses + 1;
            None
        | Some e ->
            let value = read_exactly t.fd e.voff e.vlen in
            if String.length value = e.vlen && payload_crc ~key ~value = e.crc
            then begin
              t.hits <- t.hits + 1;
              Some value
            end
            else begin
              (* Unreadable on disk right now — never serve it. *)
              Hashtbl.remove t.index key;
              t.misses <- t.misses + 1;
              None
            end
      end)

let mem t key =
  with_lock t (fun () ->
      if t.closed then false
      else begin
        refresh_locked t;
        Hashtbl.mem t.index key
      end)

let length t = with_lock t (fun () -> Hashtbl.length t.index)

let size_bytes t =
  with_lock t (fun () ->
      if t.closed then 0
      else try (Unix.fstat t.fd).Unix.st_size with Unix.Unix_error _ -> 0)

(* Take the OS file lock (whole file, blocking).  lockf is relative to
   the file position, so park at 0 first. *)
let flock_exclusive fd = ignore (Unix.lseek fd 0 Unix.SEEK_SET); Unix.lockf fd Unix.F_LOCK 0
let flock_release fd = ignore (Unix.lseek fd 0 Unix.SEEK_SET); Unix.lockf fd Unix.F_ULOCK 0

(* Run [f] with the process mutex + file lock held, re-opening first if
   a concurrent compaction swapped the inode under us.  [t.lock] is
   held by the caller. *)
let rec with_file_lock ?(tries = 5) t f =
  flock_exclusive t.fd;
  let st = try Some (Unix.stat t.path) with Unix.Unix_error _ -> None in
  match st with
  | Some st when st.Unix.st_ino <> t.ino && tries > 0 ->
      flock_release t.fd;
      refresh_locked t;
      with_file_lock ~tries:(tries - 1) t f
  | _ -> (
      match f () with
      | x ->
          flock_release t.fd;
          x
      | exception e ->
          (try flock_release t.fd with Unix.Unix_error _ -> ());
          raise e)

(* Writer prologue shared by [add] and [compact]: the process guard,
   then the file lock, with [t.lock] already held. *)
let with_writer t ctx f =
  Mutex.lock append_guard;
  let result =
    match with_file_lock t f with
    | x -> Ok x
    | exception Unix.Unix_error (e, _, _) -> Error (io_error ctx e)
  in
  Mutex.unlock append_guard;
  result

let add t ~key ~value =
  if String.contains key '\n' || String.contains value '\n' then
    Error (E.Io_error "store: record contains a newline")
  else
    with_lock t (fun () ->
        if t.closed then Error (E.Io_error "store: closed")
        else begin
          refresh_locked t;
          if Hashtbl.mem t.index key then Ok ()
          else
            with_writer t "append" (fun () ->
                (* The torn-tail repair.  Under the exclusive lock no
                   writer is mid-append, so bytes past the scanned
                   boundary are a torn record from a crashed writer:
                   truncate them, or the new record would land beyond
                   the tear where no scanner reaches. *)
                refresh_locked t;
                let size = (Unix.fstat t.fd).Unix.st_size in
                if size > t.scanned then Unix.ftruncate t.fd t.scanned;
                let crc = payload_crc ~key ~value in
                let line = render ~crc ~key ~value in
                let at = Unix.lseek t.fd 0 Unix.SEEK_END in
                write_all t.fd line;
                if t.sync then Unix.fsync t.fd;
                t.scanned <- at + String.length line;
                Hashtbl.replace t.index key
                  {
                    voff = t.scanned - String.length value - 1;
                    vlen = String.length value;
                    crc;
                  };
                t.appended <- t.appended + 1)
        end)

(* Rewrite the file keeping the indexed record of every key [live]
   accepts, in file order.  The new contents go to a sibling temp file
   renamed over the store, so a crash mid-compaction leaves either the
   old file or the new one, both valid.  Superseded duplicates and any
   torn tail are never indexed, so they are dropped too. *)
let compact t ?(live = fun _ -> true) () =
  with_lock t (fun () ->
      if t.closed then Error (E.Io_error "store: closed")
      else
        with_writer t "compact" (fun () ->
            refresh_locked t;
            let size = (Unix.fstat t.fd).Unix.st_size in
            let contents = read_exactly t.fd 0 size in
            let kept =
              Hashtbl.fold
                (fun key e acc ->
                  if live key then (e.voff, key, e) :: acc else acc)
                t.index []
            in
            let b = Buffer.create 4096 in
            List.iter
              (fun (_, key, e) ->
                let value = String.sub contents e.voff e.vlen in
                if payload_crc ~key ~value = e.crc then
                  Buffer.add_string b (render ~crc:e.crc ~key ~value))
              (List.sort compare kept);
            let tmp = t.path ^ ".compact" in
            let tmp_fd =
              Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
            in
            write_all tmp_fd (Buffer.contents b);
            if t.sync then Unix.fsync tmp_fd;
            Unix.rename tmp t.path;
            (* The old fd still holds the file lock some waiter may be
               queued on; swap our handle to the new inode — the waiter
               will see the inode change and retry. *)
            let old = t.fd in
            t.fd <- tmp_fd;
            t.ino <- (Unix.fstat tmp_fd).Unix.st_ino;
            t.scanned <- 0;
            Hashtbl.reset t.index;
            refresh_locked t;
            t.compactions <- t.compactions + 1;
            (try flock_release old with Unix.Unix_error _ -> ());
            (try Unix.close old with Unix.Unix_error _ -> ());
            (size, Buffer.length b)))

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        appended = t.appended;
        compactions = t.compactions;
      })

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)
