(** The one error type shared by every scheduling entry point.

    Fallible operations come in pairs: a [result]-returning base
    function ([Scenario.make], [Solve.solve], ...) and a thin [_exn]
    wrapper that raises {!Error}.  Nothing in the public API signals
    errors through [Failure] or [Invalid_argument] anymore; match on
    {!t} (or catch {!Error}) instead of parsing exception strings. *)

type t =
  | Unbounded  (** the scheduling LP is unbounded (degenerate platform) *)
  | Infeasible  (** the scheduling LP is infeasible (degenerate platform) *)
  | Invalid_scenario of string
      (** malformed combinatorial input: bad permutation pair, empty
          enrollment, out-of-range worker index, unusable platform ... *)
  | Parse_error of { file : string option; line : int; col : int; msg : string }
      (** malformed textual input ({!Platform_io}, {!Schedule_io},
          {!Faults}): 1-based line and column of the offending token *)
  | Io_error of string  (** the underlying file could not be read/written *)

(** Raised by the [_exn] wrappers. *)
exception Error of t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [of_solver e] maps a simplex-level failure into {!t}. *)
val of_solver : Simplex.Solver.error -> t

(** [get_exn r] unwraps [Ok], raising {!Error} on [Error]. *)
val get_exn : ('a, t) result -> 'a

(** [invalid fmt ...] builds an [Error (Invalid_scenario msg)] result. *)
val invalid : ('a, unit, string, ('b, t) result) format4 -> 'a

(** [parse_error ?file ~line ~col fmt ...] builds an
    [Error (Parse_error _)] result (1-based positions). *)
val parse_error :
  ?file:string -> line:int -> col:int -> ('a, unit, string, ('b, t) result) format4 -> 'a

(** [in_file path e] attaches the file name to a {!Parse_error}
    (identity on every other constructor). *)
val in_file : string -> t -> t
