type cell = Str of string | Float of float | Int of int

type t = {
  id : string;
  title : string;
  columns : string list;
  rows : cell list list;
  notes : string list;
  timings : t option;
}

let make ~id ~title ~columns ?(notes = []) ?timings rows =
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Report.make: row %d has %d cells, expected %d" i
             (List.length row) width))
    rows;
  { id; title; columns; rows; notes; timings }

let cell_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e9 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.4g" f

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map csv_escape t.columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat "," (List.map (fun c -> csv_escape (cell_to_string c)) row));
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let cell_to_json = function
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_finite f then Printf.sprintf "%.17g" f
    else Printf.sprintf "\"%s\"" (Float.to_string f)

let to_json t =
  let strings items = String.concat "," items in
  Printf.sprintf
    "{\"id\":\"%s\",\"title\":\"%s\",\"columns\":[%s],\"rows\":[%s],\"notes\":[%s]}"
    (json_escape t.id) (json_escape t.title)
    (strings (List.map (fun c -> Printf.sprintf "\"%s\"" (json_escape c)) t.columns))
    (strings
       (List.map (fun row -> "[" ^ strings (List.map cell_to_json row) ^ "]") t.rows))
    (strings (List.map (fun n -> Printf.sprintf "\"%s\"" (json_escape n)) t.notes))

let pp fmt t =
  let all_rows = t.columns :: List.map (List.map cell_to_string) t.rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w s -> max w (String.length s)) acc row)
      (List.map (fun _ -> 0) t.columns)
      all_rows
  in
  Format.fprintf fmt "@[<v>== %s: %s ==@," t.id t.title;
  let print_row row =
    let cells = List.map2 (fun w s -> Printf.sprintf "%*s" w s) widths row in
    Format.fprintf fmt "  %s@," (String.concat "  " cells)
  in
  print_row t.columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter (fun row -> print_row (List.map cell_to_string row)) t.rows;
  List.iter (fun note -> Format.fprintf fmt "  note: %s@," note) t.notes;
  Format.fprintf fmt "@]"

let print t = Format.printf "%a@." pp t
