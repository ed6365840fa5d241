type t = {
  page_size : int;
  offsets : int array;  (* byte offset of each attribute *)
  total_bytes : int;
  attr_pages : int list array;  (* pages each attribute's extent touches *)
}

let pages_for ~page_size total_bytes =
  if total_bytes = 0 then 1 else (total_bytes + page_size - 1) / page_size

let create ~page_size attrs =
  if page_size <= 0 then invalid_arg "Layout.create: page_size must be positive";
  let n = Array.length attrs in
  let offsets = Array.make n 0 in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !cursor;
    cursor := !cursor + attrs.(i).Attribute.size_bytes
  done;
  let total_bytes = !cursor in
  (* Attributes within one page share that page's list: a class has many
     attributes per page, and the lists live as long as the catalog. *)
  let singles = Array.init (pages_for ~page_size total_bytes) (fun p -> [ p ]) in
  let attr_pages =
    Array.init n (fun i ->
        let first = offsets.(i) / page_size in
        let last = (offsets.(i) + attrs.(i).Attribute.size_bytes - 1) / page_size in
        if first = last then singles.(first) else List.init (last - first + 1) (fun k -> first + k))
  in
  { page_size; offsets; total_bytes; attr_pages }

let page_size t = t.page_size

let page_count t = pages_for ~page_size:t.page_size t.total_bytes

let total_bytes t = t.total_bytes

let check_attr t a =
  if a < 0 || a >= Array.length t.offsets then invalid_arg "Layout: attribute id out of range"

let offset t a =
  check_attr t a;
  t.offsets.(a)

let pages_of_attr t a =
  check_attr t a;
  t.attr_pages.(a)

(* Attributes are placed in id order, so the page lists of ascending ids
   concatenate to a non-decreasing sequence: dropping each page equal to the
   last one kept leaves the union, ascending. *)
let pages_of_attrs t attrs =
  let last_attr = ref min_int and last_page = ref (-1) and acc = ref [] in
  List.iter
    (fun a ->
      if a <= !last_attr then invalid_arg "Layout.pages_of_attrs: attributes not ascending";
      last_attr := a;
      List.iter
        (fun p ->
          if p <> !last_page then begin
            acc := p :: !acc;
            last_page := p
          end)
        (pages_of_attr t a))
    attrs;
  List.rev !acc

let attr_count t = Array.length t.offsets

let pp fmt t =
  Format.fprintf fmt "layout: %d attrs, %d bytes, %d pages of %dB" (attr_count t) t.total_bytes
    (page_count t) t.page_size
