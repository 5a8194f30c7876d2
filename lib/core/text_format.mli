(** Shared plumbing for the line-oriented text formats ({!Platform_io},
    {!Schedule_io}, {!Faults}): comment-stripping tokenization with
    column positions, positioned scalar parsers, and file helpers that
    never raise on I/O failures. *)

type token = { text : string; col : int  (** 1-based *) }

(** [tokens line] splits [line] on blanks, dropping a ['#'] comment;
    each token carries its 1-based starting column. *)
val tokens : string -> token list

(** [words line] is [tokens line] without the comment rule: a ['#']
    is an ordinary character (a reply line carries free text). *)
val words : string -> token list

(** [rational ~line tok] parses the token as an exact rational,
    reporting a positioned {!Errors.Parse_error} on malformed input
    (including ["1/0"]). *)
val rational :
  ?file:string -> line:int -> token -> (Numeric.Rational.t, Errors.t) result

(** [fields ?off sep s] splits [s] on [sep] for the compact [a:b:c,...]
    specs: each part with its surrounding blanks trimmed, paired with the
    0-based offset in [s] (plus [off]) where the trimmed part starts.  A
    part left empty is a stray separator, which the spec parsers report
    at that offset. *)
val fields : ?off:int -> char -> string -> (int * string) list

(** [int ~line tok] parses the token as an OCaml int. *)
val int : line:int -> token -> (int, Errors.t) result

(** [read_file path] reads the whole file; [Error (Io_error _)] instead
    of [Sys_error]. *)
val read_file : string -> (string, Errors.t) result

(** [write_file path content] writes the whole file. *)
val write_file : string -> string -> (unit, Errors.t) result
