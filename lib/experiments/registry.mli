(** Registry of every reproducible experiment, keyed by the paper's
    figure ids; [dls experiment] drives this list. *)

type entry = {
  id : string;
  description : string;
  run : quick:bool -> jobs:int -> Report.t list;
}

val all : entry list

(** [find id] looks an experiment up by id (e.g. "fig12").
    @raise Not_found for unknown ids. *)
val find : string -> entry

val ids : unit -> string list
