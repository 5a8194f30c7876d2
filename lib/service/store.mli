(** The durable solution store: one file of canonical request key →
    rendered response records.

    Tier 1 is each daemon's in-memory response LRU; this module is the
    tier below it, and the only durable one.  Every shard of a fleet
    may open the same file, consult it on an LRU miss before solving,
    and append freshly computed solutions to it.  Because keys are
    canonical request lines and evaluations are pure, a record written
    by one shard is the bit-identical answer any other shard would have
    computed — so a solution computed once, anywhere, is a disk read
    everywhere else, across restarts, crashes and ring reshapes.

    {b Record format} (all byte counts exact; keys and values are the
    protocol's canonical single-line renderings):

    {v rec <crc32-hex> <klen> <vlen>
<key bytes>
<value bytes>
v}

    The CRC-32 covers [key ^ "\n" ^ value].  A record is accepted only
    if the header parses, both payloads are present in full with their
    terminators, and the checksum matches.

    The store is {b random access} and {b shared}:

    - an in-memory index maps each key to its record's byte position;
      {!find} seeks and reads just that record, re-verifying its CRC;
    - {!find} first {e refreshes}: records appended by other handles —
      including other processes — since the last look are absorbed by
      scanning only the new tail, and a swapped inode (another process
      ran {!compact}) triggers a clean reopen;
    - {!add} appends under an OS file lock (plus a process-wide mutex,
      since POSIX locks do not exclude within one process), so
      concurrent writers cannot tear each other's records; a key
      already present is {e not} re-appended — the store holds one
      record per key modulo races, and duplicate records are harmless
      (last wins in every reader);
    - {!compact} rewrites the file keeping the latest record per key
      (optionally filtered by [live]), swapping it in by rename so a
      crash leaves a valid store.

    {b Torn tails.}  A crash mid-append leaves a partial or corrupt
    final record.  It is never served: the scanner stops at the first
    bad record (everything after it is unreachable, since record
    boundaries are length-derived), and {!find} re-checks the CRC on
    every read.  The tear is repaired at the next {!add}: under the
    exclusive file lock the writer truncates the file back to the last
    good record boundary before appending, so new records never land
    beyond a tear where no scanner would reach them. *)

type t

type stats = {
  hits : int;  (** {!find} probes that returned a record *)
  misses : int;  (** {!find} probes that found nothing *)
  appended : int;  (** records appended through this handle *)
  compactions : int;  (** {!compact} runs through this handle *)
}

(** [open_ ?sync path] opens (creating if absent) the store and indexes
    its valid record prefix.  With [~sync:true] (default false) every
    {!add} is followed by [fsync]. *)
val open_ : ?sync:bool -> string -> (t, Dls.Errors.t) result

(** [find t key] is the stored response line for [key], or [None].
    Absorbs other writers' appends (and compactions) first; the
    returned value was CRC-verified on this very read. *)
val find : t -> string -> string option

(** [add t ~key ~value] makes [key → value] durable unless the key is
    already stored.  [key] and [value] must be newline-free.  Truncates
    any torn tail left by a crashed writer before appending. *)
val add : t -> key:string -> value:string -> (unit, Dls.Errors.t) result

(** [mem t key] probes the index without reading or counting. *)
val mem : t -> string -> bool

(** Number of distinct keys indexed. *)
val length : t -> int

val size_bytes : t -> int

(** [compact t ()] rewrites the store keeping the latest record of
    every key [live] accepts (default: keep all keys — compaction then
    only drops superseded duplicates and any torn tail).  Returns
    [(bytes_before, bytes_after)]. *)
val compact :
  t -> ?live:(string -> bool) -> unit -> (int * int, Dls.Errors.t) result

val stats : t -> stats
val close : t -> unit

(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a string, as the
    record headers carry it — exposed for tests that corrupt records
    deliberately. *)
val crc32 : string -> int
