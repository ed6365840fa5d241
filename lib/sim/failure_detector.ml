type t = {
  timeout_us : float;
  last_heard : float array;
  hinted : bool array;
  mutable self : int option;
}

let create ~node_count ~timeout_us =
  if node_count <= 0 then invalid_arg "Failure_detector.create: node_count must be positive";
  if timeout_us <= 0.0 then invalid_arg "Failure_detector.create: timeout_us must be positive";
  {
    timeout_us;
    last_heard = Array.make node_count 0.0;
    hinted = Array.make node_count false;
    self = None;
  }

let heartbeat t ~node ~now =
  if now >= t.last_heard.(node) then begin
    t.last_heard.(node) <- now;
    t.hinted.(node) <- false
  end

let hint t ~node = t.hinted.(node) <- true

let is_suspect t ~node ~now =
  t.hinted.(node) || now -. t.last_heard.(node) > t.timeout_us

let suspects t ~now =
  let out = ref [] in
  for node = Array.length t.last_heard - 1 downto 0 do
    if t.self <> Some node && is_suspect t ~node ~now then out := node :: !out
  done;
  !out

let last_heard t ~node = t.last_heard.(node)
let set_self t node = t.self <- Some node
