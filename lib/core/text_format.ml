type token = { text : string; col : int }

(* Split [line] on blanks up to [limit], remembering where each token
   starts (1-based column, counting raw characters). *)
let split line limit =
  let toks = ref [] in
  let i = ref 0 in
  while !i < limit do
    while !i < limit && (line.[!i] = ' ' || line.[!i] = '\t' || line.[!i] = '\r') do
      incr i
    done;
    if !i < limit then begin
      let start = !i in
      while
        !i < limit && not (line.[!i] = ' ' || line.[!i] = '\t' || line.[!i] = '\r')
      do
        incr i
      done;
      toks := { text = String.sub line start (!i - start); col = start + 1 } :: !toks
    end
  done;
  List.rev !toks

let tokens line =
  split line (match String.index_opt line '#' with Some i -> i | None -> String.length line)

let words line = split line (String.length line)

let rational ?file ~line (tok : token) =
  (* [Q.of_string] raises [Invalid_argument] on a malformed numeral or
     a decimal exponent beyond +-1000, and [Division_by_zero] on "1/0";
     normalize both into a positioned parse error. *)
  match Numeric.Rational.of_string tok.text with
  | q -> Ok q
  | exception (Invalid_argument _ | Division_by_zero) ->
    Errors.parse_error ?file ~line ~col:tok.col "not a rational: %S" tok.text

let fields ?(off = 0) sep s =
  let blank ch = ch = ' ' || ch = '\t' in
  let rec go start acc =
    let stop = Option.value (String.index_from_opt s start sep) ~default:(String.length s) in
    let i = ref start and j = ref stop in
    while !i < !j && blank s.[!i] do
      incr i
    done;
    while !j > !i && blank s.[!j - 1] do
      decr j
    done;
    let acc = (off + !i, String.sub s !i (!j - !i)) :: acc in
    if stop = String.length s then List.rev acc else go (stop + 1) acc
  in
  go 0 []

let int ~line (tok : token) =
  match int_of_string_opt tok.text with
  | Some i -> Ok i
  | None -> Errors.parse_error ~line ~col:tok.col "not an integer: %S" tok.text

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Errors.Io_error msg)
  | ic ->
    let finally () = close_in_noerr ic in
    Fun.protect ~finally (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Ok s
        | exception Sys_error msg -> Error (Errors.Io_error msg))

let write_file path content =
  match open_out_bin path with
  | exception Sys_error msg -> Error (Errors.Io_error msg)
  | oc ->
    let finally () = close_out_noerr oc in
    Fun.protect ~finally (fun () ->
        match output_string oc content with
        | () -> Ok ()
        | exception Sys_error msg -> Error (Errors.Io_error msg))
