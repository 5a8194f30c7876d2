(** Tabular experiment reports: the textual equivalent of the paper's
    figures, printable and exportable as CSV. *)

type cell = Str of string | Float of float | Int of int

type t = {
  id : string;  (** e.g. "fig10" *)
  title : string;
  columns : string list;
  rows : cell list list;
  notes : string list;  (** free-form commentary printed under the table *)
  timings : t option;
      (** wall-clock measurements taken while the table was computed,
          as a table of their own.  No rendering of this report ([pp],
          [to_csv], [to_json]) includes them, so those stay a pure
          function of the experiment's seeds; [dls experiment] prints
          them on stderr. *)
}

(** [make ~id ~title ~columns rows] checks that every row has one cell
    per column. @raise Invalid_argument otherwise. *)
val make :
  id:string ->
  title:string ->
  columns:string list ->
  ?notes:string list ->
  ?timings:t ->
  cell list list ->
  t

val cell_to_string : cell -> string

(** [to_csv t] renders the table as comma-separated values (header
    included). *)
val to_csv : t -> string

(** [to_json t] renders the table as a JSON object
    [{id, title, columns, rows, notes}]; numeric cells stay numbers. *)
val to_json : t -> string

(** [print t] pretty-prints the table (aligned columns) to stdout. *)
val print : t -> unit

val pp : Format.formatter -> t -> unit
