type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ~header ?align rows =
  let cols = List.length header in
  let aligns =
    match align with
    | Some a when List.length a = cols -> a
    | _ -> List.init cols (fun _ -> Right)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let render_row cells =
    String.concat "  "
      (List.map2 (fun (w, a) c -> pad a w c) (List.combine widths aligns) cells)
  in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (render_row header :: rule :: List.map render_row rows)
