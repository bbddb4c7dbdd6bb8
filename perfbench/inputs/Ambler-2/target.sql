CREATE TABLE Person (
    pid INTEGER,
    firstName VARCHAR(255),
    lastName VARCHAR(255),
    email VARCHAR(255),
    phone VARCHAR(255),
    fax VARCHAR(255)
);
