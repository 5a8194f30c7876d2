(** Minimal ASCII scatter/line plots, so the experiment sweeps can
    render the paper's figures as charts and not only as tables.

    Each series gets a marker character; points are placed on a
    character grid with auto-scaled axes.  Collisions show the marker of
    the last series drawn. *)

type series = { label : string; points : (float * float) list }

(** [render ?width ?height ?y_min ?y_max series] draws the chart.
    Returns ["(no data)\n"] when every series is empty.
    @raise Invalid_argument when more than 8 series are given. *)
val render :
  ?width:int -> ?height:int -> ?y_min:float -> ?y_max:float -> series list -> string
